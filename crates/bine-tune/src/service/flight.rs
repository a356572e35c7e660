//! Single-flight compilation: the one loop every cache miss of the service
//! goes through ([`ServiceSelector::resolve`]) — cache probe, then follow
//! an in-flight compile of the same key or lead a new one, publishing the
//! result under the same lock acquisition that retires the flight.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use bine_sched::CompiledSchedule;

use super::cache::{Key, ShardState};
use super::{DegradePolicy, ServiceSelector};

/// Locks a mutex, tolerating poison: a panicking compile must not turn
/// every later request on the same shard into a secondary panic.
pub(super) fn lock_any<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The single-flight handle one leader publishes per in-flight compile.
/// Followers block on the condvar until the leader settles the result.
pub(super) struct Flight {
    state: Mutex<FlightState>,
    done: Condvar,
}

enum FlightState {
    Pending,
    /// `None` when the pick was deterministically not buildable at this
    /// rank count — a follower would have reached the same `None`.
    Done(Option<Arc<CompiledSchedule>>),
    /// The leader panicked mid-compile: the outcome is *unknown*, not
    /// "unbuildable". Followers re-enter the request path and retry
    /// (typically becoming the next leader and hitting the same panic in
    /// their own thread), so a crash is never misreported as a permanently
    /// unservable configuration.
    Abandoned,
}

/// What a follower observed when its flight settled (or didn't).
enum FlightOutcome {
    Done(Option<Arc<CompiledSchedule>>),
    Abandoned,
    /// The flight was still pending when the follower's bounded wait
    /// expired: the leader is stalled (or just slower than the budget).
    TimedOut,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            state: Mutex::new(FlightState::Pending),
            done: Condvar::new(),
        }
    }

    /// Blocks until the flight settles or `timeout` elapses. The deadline
    /// is absolute: spurious condvar wakeups re-wait only for the
    /// remainder, so a stalled leader can never strand a follower past it.
    fn wait_timeout(&self, timeout: Duration) -> FlightOutcome {
        let deadline = Instant::now() + timeout;
        let mut state = lock_any(&self.state);
        loop {
            match &*state {
                FlightState::Done(result) => return FlightOutcome::Done(result.clone()),
                FlightState::Abandoned => return FlightOutcome::Abandoned,
                FlightState::Pending => {
                    let now = Instant::now();
                    if now >= deadline {
                        return FlightOutcome::TimedOut;
                    }
                    state = self
                        .done
                        .wait_timeout(state, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                }
            }
        }
    }

    fn settle(&self, state: FlightState) {
        *lock_any(&self.state) = state;
        self.done.notify_all();
    }
}

/// Leader-side completion guard: however the leader exits — success, an
/// unbuildable pick, or a panic inside `compile` — the in-flight handle is
/// removed from the shard and settled, so followers can never deadlock on
/// an abandoned flight. On success the compiled schedule is inserted into
/// the shard cache (and the key's breaker forgotten) *in the same lock
/// acquisition* that retires the flight: there is no window in which a
/// third thread sees neither the cache line nor the in-flight handle and
/// compiles a second time. On unwind the flight settles as
/// [`FlightState::Abandoned`], sending followers back to retry rather than
/// handing them a false "unbuildable".
struct FlightGuard<'a> {
    shard: &'a Mutex<ShardState>,
    key: Key,
    flight: Arc<Flight>,
    /// Set by the leader on completion; still unset on unwind.
    result: Option<Option<Arc<CompiledSchedule>>>,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        let result = self.result.take();
        {
            let mut shard = lock_any(self.shard);
            shard.in_flight.retain(|(k, _)| *k != self.key);
            if let Some(settled) = &result {
                shard.breakers.retain(|(k, _)| *k != self.key);
                if let Some(compiled) = settled {
                    shard.cache.insert(self.key, Arc::clone(compiled));
                }
            }
        }
        self.flight.settle(match result {
            Some(result) => FlightState::Done(result),
            None => FlightState::Abandoned,
        });
    }
}

/// Whether a [`ServiceSelector::resolve`] call is under the protection
/// the service gives its first-choice answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Guard {
    /// The request path's committed rung: the adaptive overlay is
    /// consulted ahead of the cache, the key's breaker before any compile,
    /// and a leader retries panicking compiles per the [`DegradePolicy`].
    On,
    /// Lower rungs and crash recovery: plain cache + single-flight, one
    /// compile attempt, no breaker — the degraded path must not itself be
    /// stalled or tripped.
    Off,
}

/// How [`ServiceSelector::resolve`] answered.
pub(super) enum Resolved {
    /// The key's answer: a cache hit, this leader's compile or the one a
    /// follower waited for. `None` when the compile deterministically found
    /// the pick not buildable.
    Served(Option<Arc<CompiledSchedule>>),
    /// No answer from this key — open breaker, timed-out flight, or every
    /// compile attempt panicked: the caller steps down the ladder.
    StepDown,
}

/// How one request participates in resolving a cache miss.
enum Role {
    Leader(Arc<Flight>),
    Follower(Arc<Flight>),
}

/// Backoff slept before the `attempt`-th retry (1-based):
/// `base · 2^(attempt−1)`, capped.
fn backoff(policy: &DegradePolicy, attempt: u32) -> Duration {
    let doublings = attempt.saturating_sub(1).min(20);
    policy
        .backoff_base
        .saturating_mul(1u32 << doublings)
        .min(policy.backoff_cap)
}

/// A compile a [`ServiceSelector::resolve`] leader runs on a miss, given
/// the attempt number (0 on the first try, `k` on the `k`-th retry).
pub(super) type Compile<'a> = &'a dyn Fn(u32) -> Option<Arc<CompiledSchedule>>;

impl ServiceSelector {
    /// Resolves `key` to its compiled schedule: from the shard cache, by
    /// waiting on another thread's in-flight compile of the same key, or by
    /// leading the compile — `compile(attempt)` runs outside the stripe
    /// lock, so other entries of the shard stay servable meanwhile. A key
    /// is compiled exactly once however many threads race for it cold.
    ///
    /// The warm path is this function alone — one lock acquisition, no
    /// allocation; a miss continues under the same lock acquisition in the
    /// out-of-line [`ServiceSelector::miss`], so a hit never pays for the
    /// miss machinery's stack frame.
    pub(super) fn resolve(&self, key: Key, guard: Guard, compile: Compile<'_>) -> Resolved {
        let shard = self.shard(&key);
        let guarded = guard == Guard::On;
        loop {
            let mut state = lock_any(shard);
            // Adaptive override, ahead of the committed cache line: an
            // entry the feedback loop has overridden serves its
            // pre-compiled challenger (an `Arc` clone, no allocation)
            // until the override is reverted.
            let overridden = if guarded && self.adapt.is_some() {
                state.overridden(&key)
            } else {
                None
            };
            if let Some(hit) = overridden.or_else(|| state.cache.get(&key)) {
                state.stats.hits += 1;
                return Resolved::Served(Some(hit));
            }
            // `None`: the flight this request followed was abandoned (its
            // leader panicked), which says nothing about this key. Retry
            // from the probe — re-checking the breaker, and typically
            // becoming the next leader.
            if let Some(resolved) = self.miss(state, shard, key, guarded, compile) {
                return resolved;
            }
        }
    }

    /// The miss half of [`ServiceSelector::resolve`], entered holding the
    /// stripe lock of the failed probe: consult the breaker, then follow
    /// the key's in-flight compile or lead a new one, publishing the result
    /// under the same lock acquisition that retires the flight.
    #[cold]
    #[inline(never)]
    fn miss(
        &self,
        mut state: MutexGuard<'_, ShardState>,
        shard: &Mutex<ShardState>,
        key: Key,
        guarded: bool,
        compile: Compile<'_>,
    ) -> Option<Resolved> {
        // Breaker consult, after the cache: a published line is always a
        // successful compile and safe to serve. Once the cooldown is over
        // the admitted request is the half-open probe and runs a real
        // compile below; concurrent requests keep stepping down until the
        // probe settles the breaker.
        if guarded && !state.admit(&key, self.policy.breaker_cooldown) {
            state.stats.fallbacks += 1;
            return Some(Resolved::StepDown);
        }
        state.stats.misses += 1;
        let role = match state.in_flight.iter().find(|(k, _)| *k == key) {
            Some((_, flight)) => Role::Follower(Arc::clone(flight)),
            None => {
                let flight = Arc::new(Flight::new());
                state.in_flight.push((key, Arc::clone(&flight)));
                state.stats.compilations += 1;
                Role::Leader(flight)
            }
        };
        drop(state);
        Some(match role {
            Role::Follower(flight) => match flight.wait_timeout(self.policy.flight_timeout) {
                FlightOutcome::Done(result) => Resolved::Served(result),
                FlightOutcome::Abandoned => return None,
                // The leader is stalled past the wait budget. Count the
                // timeout as a failure against the entry — a permanently
                // stalled leader must eventually trip the breaker — and
                // step down now.
                FlightOutcome::TimedOut if guarded => {
                    let mut state = lock_any(shard);
                    state.stats.timeouts += 1;
                    state.stats.fallbacks += 1;
                    state.strike(key, self.policy.breaker_threshold);
                    Resolved::StepDown
                }
                // Below the breaker there is nothing to trip: compile
                // privately (uncached) rather than wait any longer.
                FlightOutcome::TimedOut => Resolved::Served(compile(0)),
            },
            Role::Leader(flight) => {
                let mut flight_guard = FlightGuard {
                    shard,
                    key,
                    flight,
                    result: None,
                };
                // Panicking attempts are retried with capped exponential
                // backoff; a compile's own verdict (`None` = pick not
                // buildable at this rank count) is deterministic and never
                // retried.
                let retries = if guarded { self.policy.max_retries } else { 0 };
                for attempt in 0..=retries {
                    if attempt > 0 {
                        // Count the retry exactly when it starts; back off
                        // holding no locks (followers are parked on the
                        // flight condvar).
                        lock_any(shard).stats.retries += 1;
                        std::thread::sleep(backoff(&self.policy, attempt));
                    }
                    if let Ok(compiled) = catch_unwind(AssertUnwindSafe(|| compile(attempt))) {
                        // Dropping the guard retires the flight and
                        // publishes the line.
                        flight_guard.result = Some(compiled.clone());
                        return Some(Resolved::Served(compiled));
                    }
                }
                // Every attempt panicked. Record the failure *before* the
                // guard abandons the flight, so followers wake into an
                // up-to-date breaker. The cache is never touched, so a
                // poisoned compile can never be published.
                if guarded {
                    let mut state = lock_any(shard);
                    state.stats.fallbacks += 1;
                    state.strike(key, self.policy.breaker_threshold);
                }
                Resolved::StepDown
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::table;
    use super::super::{CompileAttempt, DegradePolicy, ServiceSelector};
    use bine_sched::Collective;
    use std::sync::Arc;
    use std::time::Duration;

    /// Injected compile panics walk the whole degradation ladder: each
    /// failed leadership retries `max_retries` times, consecutive failures
    /// trip the per-entry breaker, and every degraded request is answered
    /// with the binomial fallback — while other entries stay healthy.
    #[test]
    fn compile_failures_retry_then_trip_the_breaker_to_the_fallback() {
        use std::sync::atomic::{AtomicU64, Ordering};

        let hook_calls = Arc::new(AtomicU64::new(0));
        let calls = Arc::clone(&hook_calls);
        let service = ServiceSelector::from_tables(&[table("Testbox")])
            .with_policy(DegradePolicy {
                flight_timeout: Duration::from_secs(30),
                max_retries: 1,
                backoff_base: Duration::ZERO,
                backoff_cap: Duration::ZERO,
                breaker_threshold: 2,
                breaker_cooldown: Duration::from_secs(3600),
            })
            .with_compile_hook(Arc::new(move |a: &CompileAttempt| {
                if a.collective == Collective::Allreduce {
                    calls.fetch_add(1, Ordering::SeqCst);
                    panic!("injected compile failure");
                }
            }));

        // Leadership 1: first try + one retry both panic; not yet at the
        // breaker threshold, but the answer is already the fallback.
        let c = service
            .compiled("Testbox", Collective::Allreduce, 16, 1 << 20)
            .expect("degraded answer");
        assert_eq!(c.algorithm, "rabenseifner");
        assert_eq!(c.num_ranks, 16);
        assert_eq!(hook_calls.load(Ordering::SeqCst), 2);
        assert_eq!(service.stats().retries, 1);
        assert_eq!(service.fallbacks(), 1);

        // Leadership 2 fails too → the breaker trips open.
        let c = service
            .compiled("Testbox", Collective::Allreduce, 16, 1 << 20)
            .expect("degraded answer");
        assert_eq!(c.algorithm, "rabenseifner");
        assert_eq!(hook_calls.load(Ordering::SeqCst), 4);
        assert_eq!(service.stats().retries, 2);

        // Open breaker: served straight from the cached fallback line, no
        // compile attempt at all (the cooldown is an hour).
        let c = service
            .compiled("Testbox", Collective::Allreduce, 16, 1 << 20)
            .expect("degraded answer");
        assert_eq!(c.algorithm, "rabenseifner");
        assert_eq!(
            hook_calls.load(Ordering::SeqCst),
            4,
            "breaker skips compiles"
        );
        assert_eq!(service.fallbacks(), 3);
        assert_eq!(service.stats().timeouts, 0);

        // A different entry on the same service stays fully healthy.
        let c = service
            .compiled("Testbox", Collective::Broadcast, 16, 32)
            .expect("healthy answer");
        assert_eq!(c.algorithm, "bine-tree");
    }

    /// After the cooldown, one request probes the entry half-open; a
    /// successful probe closes the breaker and the tuned pick is served
    /// (and cached) again.
    #[test]
    fn breaker_half_opens_and_recovers_after_the_cooldown() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let failing = Arc::new(AtomicBool::new(true));
        let fail = Arc::clone(&failing);
        let service = ServiceSelector::from_tables(&[table("Testbox")])
            .with_policy(DegradePolicy {
                flight_timeout: Duration::from_secs(30),
                max_retries: 0,
                backoff_base: Duration::ZERO,
                backoff_cap: Duration::ZERO,
                breaker_threshold: 1,
                breaker_cooldown: Duration::from_millis(30),
            })
            .with_compile_hook(Arc::new(move |_: &CompileAttempt| {
                if fail.load(Ordering::SeqCst) {
                    panic!("injected compile failure");
                }
            }));

        // One failed leadership trips the breaker (threshold 1) …
        let c = service
            .compiled("Testbox", Collective::Allreduce, 16, 1 << 20)
            .expect("degraded answer");
        assert_eq!(c.algorithm, "rabenseifner");
        // … and within the cooldown every request degrades.
        let c = service
            .compiled("Testbox", Collective::Allreduce, 16, 1 << 20)
            .expect("degraded answer");
        assert_eq!(c.algorithm, "rabenseifner");
        assert_eq!(service.fallbacks(), 2);

        // Heal the compile path, wait out the cooldown: the next request
        // is the half-open probe, compiles for real and closes the breaker.
        failing.store(false, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(60));
        let probe = service
            .compiled("Testbox", Collective::Allreduce, 16, 1 << 20)
            .expect("recovered answer");
        assert_eq!(probe.algorithm, "bine-large");
        // Fully recovered: the tuned pick is cached and served as a hit.
        let hit = service
            .compiled("Testbox", Collective::Allreduce, 16, 1 << 20)
            .expect("cached answer");
        assert!(Arc::ptr_eq(&probe, &hit));
        assert_eq!(service.fallbacks(), 2, "no further degradation");
    }
}
