//! Execution policies: the shapes of parallel iteration spaces.
//!
//! `RangePolicy` is implicit (a plain `n`); this module holds the
//! richer policy of §3.3 that a kernel uses: [`TeamPolicy`]
//! (hierarchical league/team parallelism).

/// A hierarchical iteration space: `league_size` teams of `team_size`
/// threads. The simulated device records the team size with each team
/// launch, for the cost model's occupancy.
#[derive(Debug, Clone, Copy)]
pub struct TeamPolicy {
    pub(crate) league_size: usize,
    pub(crate) team_size: usize,
}

impl TeamPolicy {
    pub fn new(league_size: usize, team_size: usize) -> Self {
        TeamPolicy {
            league_size,
            team_size,
        }
    }
}
