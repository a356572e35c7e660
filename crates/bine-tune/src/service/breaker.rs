//! The per-entry circuit breaker, defined once and driven by both of its
//! users: the compile path (failed single-flight leaderships and timed-out
//! follower waits, see [`super::flight`]) and the adaptive re-evaluation
//! path (failed or unscorable re-evaluations, see [`super::adapt`]). Both
//! feed it the same [`super::DegradePolicy`] threshold and cooldown.

use std::time::{Duration, Instant};

/// Circuit-breaker state of one cache entry, kept in the entry's shard and
/// only touched under the stripe lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Breaker {
    /// Normal service, counting consecutive failures.
    Closed { consecutive_failures: u32 },
    /// Tripped: nothing is admitted until the cooldown elapses, when one
    /// request is let through as a half-open probe.
    Open { since: Instant },
    /// A probe is running; everyone else stays locked out so a
    /// still-broken entry cannot re-stall the service.
    HalfOpen,
}

impl Breaker {
    /// A healthy breaker with no failures on record.
    pub(super) const CLOSED: Breaker = Breaker::Closed {
        consecutive_failures: 0,
    };

    /// Whether a request may try the guarded operation. A closed breaker
    /// admits everyone; an open one admits exactly one request once
    /// `cooldown` has elapsed — that request becomes the half-open probe,
    /// and until it reports back through [`Breaker::strike`] or
    /// [`Breaker::reset`] everyone else is refused.
    pub(super) fn admit(&mut self, cooldown: Duration) -> bool {
        match *self {
            Breaker::Closed { .. } => true,
            Breaker::Open { since } if since.elapsed() >= cooldown => {
                *self = Breaker::HalfOpen;
                true
            }
            Breaker::Open { .. } | Breaker::HalfOpen => false,
        }
    }

    /// Records one failure: a closed breaker trips open at `threshold`
    /// consecutive failures, and a failed half-open probe (or a failure
    /// reported while already open) re-opens with a fresh cooldown.
    pub(super) fn strike(&mut self, threshold: u32) {
        *self = match *self {
            Breaker::Closed {
                consecutive_failures,
            } if consecutive_failures + 1 < threshold => Breaker::Closed {
                consecutive_failures: consecutive_failures + 1,
            },
            _ => Breaker::Open {
                since: Instant::now(),
            },
        };
    }

    /// Records a success: the breaker closes and forgets its failures.
    pub(super) fn reset(&mut self) {
        *self = Breaker::CLOSED;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Breaker states without their payloads, for table comparison.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Kind {
        Closed(u32),
        Open,
        HalfOpen,
    }
    use Kind::*;

    fn kind(b: &Breaker) -> Kind {
        match *b {
            Breaker::Closed {
                consecutive_failures,
            } => Closed(consecutive_failures),
            Breaker::Open { .. } => Open,
            Breaker::HalfOpen => HalfOpen,
        }
    }

    /// Every `(state, event)` pair → `(next state, admitted?)`, at
    /// threshold 2. Both breaker users rely on exactly this table.
    #[test]
    fn every_state_event_pair_transitions_as_tabled() {
        let apply = |b: &mut Breaker, event: &str| match event {
            "admit while cooling down" => Some(b.admit(Duration::from_secs(3600))),
            "admit once cooled down" => Some(b.admit(Duration::ZERO)),
            "strike" => {
                b.strike(2);
                None
            }
            _ => {
                b.reset();
                None
            }
        };
        let closed = |n| Breaker::Closed {
            consecutive_failures: n,
        };
        let open = Breaker::Open {
            since: Instant::now(),
        };
        let (hot, cool) = ("admit while cooling down", "admit once cooled down");
        let (yes, no) = (Some(true), Some(false));
        let table = [
            (closed(0), hot, Closed(0), yes),
            (closed(0), cool, Closed(0), yes),
            (closed(0), "strike", Closed(1), None),
            (closed(0), "reset", Closed(0), None),
            (closed(1), hot, Closed(1), yes),
            (closed(1), cool, Closed(1), yes),
            (closed(1), "strike", Open, None),
            (closed(1), "reset", Closed(0), None),
            (open, hot, Open, no),
            (open, cool, HalfOpen, yes),
            (open, "strike", Open, None),
            (open, "reset", Closed(0), None),
            (Breaker::HalfOpen, hot, HalfOpen, no),
            (Breaker::HalfOpen, cool, HalfOpen, no),
            (Breaker::HalfOpen, "strike", Open, None),
            (Breaker::HalfOpen, "reset", Closed(0), None),
        ];
        for (start, event, next, admitted) in table {
            let mut b = start;
            let got = apply(&mut b, event);
            assert_eq!(
                (kind(&b), got),
                (next, admitted),
                "{:?} on {event}",
                kind(&start)
            );
        }
    }
}
