// Fixture: LKK011 — neighbor-row storage read outside its owner.
use lkk_core::neighbor::NeighborList;

pub fn longest_row(list: &NeighborList) -> u32 {
    let counts = list.numneigh.as_slice();
    let stride = list.neighbors.stride(0);
    let first = list.neighbors.at([0, 0]);
    // Through the reader: fine. So are the other pub fields and prose
    // such as list.neighbors.at( in a comment.
    let rows = list.rows();
    let via_reader = rows.row(0).next().unwrap_or(0) + rows.len(0) as u32;
    let layout = list.neighbors.layout();
    counts[0] + stride as u32 + first + via_reader + list.maxneigh as u32 + layout as u32
}

#[cfg(test)]
mod tests {
    #[test]
    fn oracle_may_index_the_storage() {
        let list = super::build();
        assert_eq!(list.neighbors.at([0, 0]), list.numneigh.at([0]));
    }
}
