//! The one way a property test draws a request of the catalog's walk.
//!
//! A test file pulls it in with
//! `#[path = "../../../tests/support/walk.rs"] mod walk;`
//! and states its walk once, as a `static` [`Walk`]: the rank counts it walks
//! and the requests of that walk it keeps. The walk is made by the binary's
//! first draw and kept for the rest; a property then draws an index into the
//! requests its own filter keeps.

// Each suite uses the one or two draws it needs.
#![allow(dead_code)]

use std::sync::OnceLock;

use bine_sched::{walk, Request, Schedule};

/// The requests of `walk(ranks)` that `within` keeps, made on first use.
pub struct Walk {
    ranks: &'static [usize],
    within: fn(&Request) -> bool,
    requests: OnceLock<Vec<Request>>,
}

impl Walk {
    pub const fn new(ranks: &'static [usize], within: fn(&Request) -> bool) -> Self {
        Self {
            ranks,
            within,
            requests: OnceLock::new(),
        }
    }

    /// Request number `draw` (modulo their count) among those of the walk
    /// that `keep` keeps.
    pub fn drawn(&'static self, draw: usize, keep: impl Fn(&Request) -> bool) -> &'static Request {
        let requests = self.requests.get_or_init(|| {
            let mut requests = walk(self.ranks);
            requests.retain(self.within);
            requests
        });
        let kept: Vec<&Request> = requests.iter().filter(|r| keep(r)).collect();
        kept[draw % kept.len()]
    }

    /// [`Walk::drawn`] with its schedule, for a walk kept to the requests
    /// whose rows build.
    pub fn built(
        &'static self,
        draw: usize,
        keep: impl Fn(&Request) -> bool,
    ) -> (&'static Request, Schedule) {
        let request = self.drawn(draw, keep);
        (request, request.build().expect("its row builds here"))
    }
}
