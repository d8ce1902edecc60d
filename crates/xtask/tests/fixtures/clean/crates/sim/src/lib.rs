//! A well-behaved event queue: the heap key is one total-order tuple,
//! so pop order is a pure function of the pushed contents — never of
//! insertion history or hash state.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(PartialEq, Eq)]
pub struct Scheduled {
    pub at: u64,
    pub seq: u64,
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

pub fn pop_order(mut heap: BinaryHeap<Reverse<Scheduled>>) -> Vec<u64> {
    let mut out = Vec::new();
    while let Some(Reverse(s)) = heap.pop() {
        out.push(s.seq);
    }
    out
}
