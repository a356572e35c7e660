//! The symbolic validator and the numeric executor read one
//! [`bine_sched::Contract`], so they must give one verdict: over the walk of
//! the catalog (every regular name × p ∈ {2, 4, 8, 16, 32}, the v-variants ×
//! every `SizeDist` at p ∈ {7, 16}, both synthesizers on the fixture views;
//! bare, `+seg2` and `+seg4`), `check_delivery` accepts a schedule exactly
//! when running it on the reference interpreter verifies — as built, and
//! with one send removed, which both reject whenever that send was needed
//! (the executor by panicking on a send it cannot back, or by `verify`).

use std::panic::{catch_unwind, AssertUnwindSafe};

use bine_exec::{sequential, verify, Workload};
use bine_sched::catalog::Source;
use bine_sched::{walk, Schedule, ScheduleValidator, TransferKind};

/// Every schedule of the enumeration with its label, at the first root and
/// an interior one; a request its row refuses (`None`) is skipped.
fn enumeration() -> Vec<(String, Schedule)> {
    let kept = |ranks: &[usize], keep: fn(&Source) -> bool| {
        let requests = walk(ranks).into_iter();
        requests.filter(move |r| keep(&r.source) && [0, r.p / 3].contains(&r.root))
    };
    let regular = kept(&[2, 4, 8, 16, 32], |s| matches!(s, Source::Regular(_)));
    let others = kept(&[7, 16], |s| !matches!(s, Source::Regular(_)));
    regular
        .chain(others)
        .filter_map(|request| Some((request.label(), request.build()?)))
        .collect()
}

fn validator_accepts(sched: &Schedule) -> bool {
    ScheduleValidator::new(&sched.compile())
        .check_delivery()
        .is_ok()
}

fn executor_accepts(sched: &Schedule) -> bool {
    let workload = Workload::for_schedule(sched, 1);
    let run = || sequential::run_reference(sched, workload.initial_state(sched));
    catch_unwind(AssertUnwindSafe(run)).is_ok_and(|finals| verify(&workload, &finals).is_ok())
}

#[test]
fn the_validator_and_the_executor_give_one_verdict() {
    let schedules = enumeration();
    // The executor refuses an unbacked send by panicking; keep the messages
    // of the panics this test provokes off its output.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let (mut disagreements, mut rejected) = (Vec::new(), 0);
    for (nth, (label, sched)) in schedules.iter().enumerate() {
        if !validator_accepts(sched) || !executor_accepts(sched) {
            disagreements.push(format!("{label}: rejected as built"));
        }
        // The same schedule with one send removed — a different one each time.
        let sends = sched.messages().count();
        if sends == 0 {
            continue;
        }
        let mut at = (nth * 7) % sends;
        let mut mutant = sched.clone();
        let step = mutant.steps.iter_mut().find(|step| {
            let here = at < step.len();
            at -= if here { 0 } else { step.len() };
            here
        });
        let step = step.expect("the index is in range");
        let removed = step.messages().nth(at).expect("in the step").kind;
        step.remove(at);
        let verdicts = (validator_accepts(&mutant), executor_accepts(&mutant));
        rejected += usize::from(verdicts == (false, false));
        // Not every send is needed — local moves and some final copies only
        // model memory traffic, and a v-variant moves zero-count segments —
        // but a lost contribution to a regular reduction always is.
        let needed = removed == TransferKind::Reduce && sched.counts.is_none();
        if verdicts.0 != verdicts.1 || (needed && verdicts.0) {
            disagreements.push(format!(
                "{label} without send {}: validator accepts = {}, executor accepts = {}",
                (nth * 7) % sends,
                verdicts.0,
                verdicts.1
            ));
        }
    }
    std::panic::set_hook(hook);
    assert!(schedules.len() > 1000, "only {} schedules", schedules.len());
    assert!(
        rejected > schedules.len() / 2,
        "only {rejected} mutants rejected"
    );
    assert!(disagreements.is_empty(), "{}", disagreements.join("\n"));
}
