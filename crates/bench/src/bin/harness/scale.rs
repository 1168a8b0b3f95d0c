//! Experiment sizes (`--quick` vs full) and the two cell formatters
//! every table shares.

pub(super) struct Scale {
    pub(super) e1_sizes: Vec<usize>,
    pub(super) e2_sizes: Vec<usize>,
    pub(super) mid: usize,
    pub(super) e8_sources: Vec<u32>,
    pub(super) per_source: usize,
    pub(super) refine_sizes: Vec<usize>,
}

impl Scale {
    pub(super) fn quick() -> Self {
        Scale {
            e1_sizes: vec![500, 1_000, 2_000],
            e2_sizes: vec![500, 1_000, 2_000],
            mid: 1_200,
            e8_sources: vec![2, 5, 10],
            per_source: 60,
            refine_sizes: vec![400, 800, 1_600],
        }
    }

    pub(super) fn full() -> Self {
        Scale {
            e1_sizes: vec![1_000, 2_000, 4_000, 8_000, 16_000],
            e2_sizes: vec![1_000, 2_000, 4_000, 8_000, 16_000],
            mid: 4_000,
            e8_sources: vec![2, 5, 10, 20, 50],
            per_source: 120,
            refine_sizes: vec![1_700, 5_000, 15_000],
        }
    }
}

pub(super) fn ms(nanos: f64) -> String {
    format!("{:.4}", nanos / 1e6)
}

pub(super) fn f3(x: f64) -> String {
    format!("{x:.3}")
}
