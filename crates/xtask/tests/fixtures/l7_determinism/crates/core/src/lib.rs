//! Dirty fixture: a heap-feeding `Ord` on a partial key.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::disallowed_types, clippy::disallowed_methods)]
/// A wake-up queue ordered on a partial key: pops between equal `at`
/// values come out in insertion-history order, which rule L7 rejects in
/// any file that feeds a `BinaryHeap`.
pub struct WakeQueue {
    pub heap: std::collections::BinaryHeap<Wake>,
}

#[derive(PartialEq, Eq)]
pub struct Wake {
    pub at: u64,
    pub idx: usize,
}

impl Ord for Wake {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at)
    }
}

impl PartialOrd for Wake {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
