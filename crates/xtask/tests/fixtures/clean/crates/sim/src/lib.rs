//! A well-behaved event queue: kept in time order, equal times in
//! schedule order, so the apply order is a pure function of the
//! schedule calls.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

use std::collections::VecDeque;

pub fn schedule(queue: &mut VecDeque<(u64, u32)>, at: u64, event: u32) {
    let index = queue.partition_point(|(t, _)| *t <= at);
    queue.insert(index, (at, event));
}
