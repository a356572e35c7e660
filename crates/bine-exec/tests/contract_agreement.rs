//! The symbolic validator and the numeric executor read one
//! [`bine_sched::Contract`], so they must give one verdict: over the
//! enumeration of `bine-sched/tests/deps.rs` (catalog × p ∈ {2, 4, 8, 16, 32}
//! × S ∈ {1, 4}, the irregular builders × every `SizeDist`, both
//! synthesizers), `check_delivery` accepts a schedule exactly when running it
//! on the reference interpreter verifies — as built, and with one send
//! removed, which both reject whenever that send was needed (the executor by
//! panicking on a send it cannot back, or by `verify`).

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use bine_exec::{sequential, verify, Workload};
use bine_sched::{
    algorithms, build, build_irregular, irregular_algorithms, synth_algorithms, Collective,
    Schedule, ScheduleValidator, SizeDist, SynthSpec, TopologyView, TransferKind,
    IRREGULAR_COLLECTIVES,
};

/// Every schedule of the enumeration with its label, unsegmented and at
/// S = 4; a rank count a builder refuses (`None`) is skipped.
fn enumeration() -> Vec<(String, Schedule)> {
    let mut base = Vec::new();
    let mut keep = |label: String, built: Option<Schedule>| {
        base.extend(built.map(|sched| (label, sched)));
    };
    for collective in Collective::ALL {
        for alg in algorithms(collective) {
            for p in [2usize, 4, 8, 16, 32] {
                let label = format!("{}/{} p={p}", collective.name(), alg.name());
                keep(label, build(collective, alg.name(), p, 0));
            }
        }
    }
    for collective in IRREGULAR_COLLECTIVES {
        for alg in irregular_algorithms(collective) {
            for dist in SizeDist::ALL {
                for (p, root) in [(7usize, 0usize), (16, 5)] {
                    let counts = dist.counts(p, root);
                    let (name, dist) = (alg.name(), dist.name());
                    let label = format!("{}v/{name} {dist} p={p}", collective.name());
                    keep(label, build_irregular(collective, name, p, root, &counts));
                }
            }
        }
    }
    let view = TopologyView::clustered(&[4, 3, 5], (100.0, 0.3), (5.0, 25.0)).unwrap();
    let mut synthesizers = BTreeSet::new();
    for collective in [
        Collective::Broadcast,
        Collective::Reduce,
        Collective::Allreduce,
    ] {
        for id in synth_algorithms(collective, &view) {
            let spec = SynthSpec::parse(id.name()).unwrap();
            let label = format!("{}/{}", collective.name(), id.name());
            keep(label, spec.synthesize(collective, &view, 1));
            synthesizers.insert(id.name().split(':').nth(1).map(str::to_owned));
        }
    }
    assert_eq!(synthesizers.len(), 2, "both synthesizers: {synthesizers:?}");
    let both = |(label, sched): (String, Schedule)| {
        let segmented = (format!("{label} S=4"), sched.segmented(4));
        [(label, sched), segmented]
    };
    base.into_iter().flat_map(both).collect()
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
            let here = at < step.messages.len();
            at -= if here { 0 } else { step.messages.len() };
            here
        });
        let removed = step.expect("the index is in range").messages.remove(at);
        let verdicts = (validator_accepts(&mutant), executor_accepts(&mutant));
        rejected += usize::from(verdicts == (false, false));
        // Not every send is needed — local moves and some final copies only
        // model memory traffic, and a v-variant moves zero-count segments —
        // but a lost contribution to a regular reduction always is.
        let needed = removed.kind == TransferKind::Reduce && sched.counts.is_none();
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
    assert!(schedules.len() > 400, "only {} schedules", schedules.len());
    assert!(
        rejected > schedules.len() / 2,
        "only {rejected} mutants rejected"
    );
    assert!(disagreements.is_empty(), "{}", disagreements.join("\n"));
}
