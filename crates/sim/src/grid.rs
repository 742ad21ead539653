//! Processor-grid topologies and their rank groups.
//!
//! The distributed algorithms lay ranks out on logical grids:
//!
//! * [`Grid2`] — a `q × q` grid (Cannon, SUMMA, 2D LU): rank
//!   `= row·q + col`;
//! * [`Grid3`] — a `q × q × c` cuboid (2.5D/3D matmul): rank
//!   `= layer·q² + row·q + col`, with `c` the replication factor.
//!
//! Each grid hands out the [`Group`]s over which the algorithms run
//! collectives (rows, columns, layers, and the `c`-deep "fibers" along
//! which blocks are replicated and contributions reduced).

use crate::collectives::Group;
use crate::error::{SimError, SimResult};

/// A `q × q` processor grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid2 {
    q: usize,
}

impl Grid2 {
    /// Build from a total rank count `p = q²`.
    pub fn from_p(p: usize) -> SimResult<Grid2> {
        let q = (p as f64).sqrt().round() as usize;
        if q * q != p || q == 0 {
            return Err(SimError::Algorithm(format!(
                "2D grid needs a square rank count, got p = {p}"
            )));
        }
        Ok(Grid2 { q })
    }

    /// Grid edge `q`.
    pub fn q(&self) -> usize {
        self.q
    }

    /// Total ranks `q²`.
    pub fn p(&self) -> usize {
        self.q * self.q
    }

    /// Rank at `(row, col)` (row-major).
    pub fn rank_of(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < self.q && col < self.q);
        row * self.q + col
    }

    /// `(row, col)` of `rank`.
    pub fn coords(&self, rank: usize) -> (usize, usize) {
        debug_assert!(rank < self.p());
        (rank / self.q, rank % self.q)
    }

    /// The group of ranks in `row`, ordered by column.
    pub fn row_group(&self, row: usize) -> Group {
        Group::new((0..self.q).map(|c| self.rank_of(row, c)).collect())
            .expect("grid rows are valid groups")
    }

    /// The group of ranks in `col`, ordered by row.
    pub fn col_group(&self, col: usize) -> Group {
        Group::new((0..self.q).map(|r| self.rank_of(r, col)).collect())
            .expect("grid columns are valid groups")
    }
}

/// A `q × q × c` processor cuboid (layer-major).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid3 {
    q: usize,
    c: usize,
}

impl Grid3 {
    /// Build from a total rank count `p = q²·c` with replication factor
    /// `c`.
    pub fn from_p(p: usize, c: usize) -> SimResult<Grid3> {
        if c == 0 || !p.is_multiple_of(c) {
            return Err(SimError::Algorithm(format!(
                "3D grid needs c | p, got p = {p}, c = {c}"
            )));
        }
        let per_layer = p / c;
        let q = (per_layer as f64).sqrt().round() as usize;
        if q == 0 || q * q != per_layer {
            return Err(SimError::Algorithm(format!(
                "3D grid needs p/c to be a square, got p/c = {per_layer}"
            )));
        }
        Ok(Grid3 { q, c })
    }

    /// Layer edge `q`.
    pub fn q(&self) -> usize {
        self.q
    }

    /// Replication factor `c` (number of layers).
    pub fn c(&self) -> usize {
        self.c
    }

    /// Total ranks `q²·c`.
    pub fn p(&self) -> usize {
        self.q * self.q * self.c
    }

    /// Rank at `(row, col, layer)`.
    pub fn rank_of(&self, row: usize, col: usize, layer: usize) -> usize {
        debug_assert!(row < self.q && col < self.q && layer < self.c);
        layer * self.q * self.q + row * self.q + col
    }

    /// `(row, col, layer)` of `rank`.
    pub fn coords(&self, rank: usize) -> (usize, usize, usize) {
        debug_assert!(rank < self.p());
        let layer = rank / (self.q * self.q);
        let rem = rank % (self.q * self.q);
        (rem / self.q, rem % self.q, layer)
    }

    /// The `c` ranks sharing `(row, col)` across layers, ordered by
    /// layer — the replication "fiber" along which 2.5D matmul
    /// broadcasts inputs and reduces contributions.
    pub fn fiber_group(&self, row: usize, col: usize) -> Group {
        Group::new((0..self.c).map(|l| self.rank_of(row, col, l)).collect())
            .expect("grid fibers are valid groups")
    }

    /// Ranks of `row` within `layer`, ordered by column.
    pub fn row_group(&self, row: usize, layer: usize) -> Group {
        Group::new((0..self.q).map(|cl| self.rank_of(row, cl, layer)).collect())
            .expect("grid rows are valid groups")
    }

    /// Ranks of `col` within `layer`, ordered by row.
    pub fn col_group(&self, col: usize, layer: usize) -> Group {
        Group::new((0..self.q).map(|r| self.rank_of(r, col, layer)).collect())
            .expect("grid columns are valid groups")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid2_roundtrip() {
        let g = Grid2::from_p(16).unwrap();
        assert_eq!(g.q(), 4);
        assert_eq!(g.p(), 16);
        for rank in 0..16 {
            let (r, c) = g.coords(rank);
            assert_eq!(g.rank_of(r, c), rank);
        }
    }

    #[test]
    fn grid2_rejects_non_square() {
        assert!(Grid2::from_p(12).is_err());
        assert!(Grid2::from_p(0).is_err());
        assert!(Grid2::from_p(2).is_err());
    }

    #[test]
    fn grid2_groups() {
        let g = Grid2::from_p(9).unwrap();
        assert_eq!(g.row_group(1).members(), &[3, 4, 5]);
        assert_eq!(g.col_group(2).members(), &[2, 5, 8]);
    }

    #[test]
    fn grid3_roundtrip() {
        let g = Grid3::from_p(32, 2).unwrap();
        assert_eq!(g.q(), 4);
        assert_eq!(g.c(), 2);
        assert_eq!(g.p(), 32);
        for rank in 0..32 {
            let (r, c, l) = g.coords(rank);
            assert_eq!(g.rank_of(r, c, l), rank);
        }
    }

    #[test]
    fn grid3_rejects_bad_shapes() {
        assert!(Grid3::from_p(10, 2).is_err()); // p/c = 5 not square
        assert!(Grid3::from_p(8, 0).is_err());
        assert!(Grid3::from_p(9, 2).is_err()); // c does not divide p
    }

    #[test]
    fn grid3_c1_is_grid2() {
        let g3 = Grid3::from_p(16, 1).unwrap();
        let g2 = Grid2::from_p(16).unwrap();
        for rank in 0..16 {
            let (r, c, l) = g3.coords(rank);
            assert_eq!(l, 0);
            assert_eq!((r, c), g2.coords(rank));
        }
    }

    #[test]
    fn grid3_groups() {
        let g = Grid3::from_p(18, 2).unwrap(); // q = 3, c = 2
        assert_eq!(g.fiber_group(0, 0).members(), &[0, 9]);
        assert_eq!(g.fiber_group(2, 1).members(), &[7, 16]);
        assert_eq!(g.row_group(1, 1).members(), &[12, 13, 14]);
        assert_eq!(g.col_group(1, 0).members(), &[1, 4, 7]);
    }
}
