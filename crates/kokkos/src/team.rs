//! The per-team execution handle for hierarchical parallelism.
//!
//! On host execution spaces a team maps to a single thread, so the
//! nested `team_range` loop runs sequentially — the same collapse
//! Kokkos performs for its host backends. The value of the abstraction
//! is that kernels written against it also express the concurrency
//! structure the simulated device space accounts for (team work items,
//! team size).

/// Handle given to each league member of a
/// [`parallel_for_team_parts`](crate::Space::parallel_for_team_parts)
/// dispatch.
pub struct Team {
    league_rank: usize,
}

impl Team {
    pub(crate) fn new(league_rank: usize) -> Self {
        Team { league_rank }
    }

    pub fn league_rank(&self) -> usize {
        self.league_rank
    }

    /// `TeamThreadRange`: distribute `0..n` over the team's threads.
    pub fn team_range<F: FnMut(usize)>(&mut self, n: usize, mut f: F) {
        for i in 0..n {
            f(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn team_handle_reports_rank_and_runs_its_range() {
        let mut t = Team::new(2);
        assert_eq!(t.league_rank(), 2);
        let mut seen = Vec::new();
        t.team_range(4, |i| seen.push(i));
        assert_eq!(seen, [0, 1, 2, 3]);
    }
}
