//! Multilevel (hierarchy-aware) tree synthesis in the style of Karonis et
//! al.: treat intra-group and inter-group links as distinct tiers and run
//! the collective as a two-level composition — a binomial exchange among
//! one *leader* per group over the slow tier, and per-group binomial
//! exchanges over the fast tier, with all groups' local phases packed into
//! shared steps.
//!
//! On fabrics where the inter-group latency dominates (GPU islands,
//! oversubscribed fat trees) this collapses the number of slow-tier rounds
//! from ~log₂ p (a topology-oblivious binomial tree under a fragmented
//! allocation) to exactly ⌈log₂ G⌉ for G groups.

use crate::schedule::{BlockId, Collective, Schedule, Step, TransferKind};
use crate::synth::view::TopologyView;

/// Binomial doubling rounds over an ordered member list: in round `j`,
/// member `i < 2^j` exchanges with member `i + 2^j`. `list[0]` is the
/// subtree root. Returns `(from_index, to_index)` pairs per round, in
/// *broadcast* direction (root outwards).
fn doubling_rounds(len: usize) -> Vec<Vec<(usize, usize)>> {
    let mut rounds = Vec::new();
    let mut span = 1usize;
    while span < len {
        let round: Vec<(usize, usize)> = (0..span)
            .filter(|i| i + span < len)
            .map(|i| (i, i + span))
            .collect();
        rounds.push(round);
        span *= 2;
    }
    rounds
}

/// The per-group member lists, each led by its leader: the root leads its
/// own group; every other group is led by its smallest rank. The root's
/// group is listed first.
fn group_lists(view: &TopologyView, root: usize) -> Vec<Vec<usize>> {
    let mut by_group: std::collections::BTreeMap<usize, Vec<usize>> =
        std::collections::BTreeMap::new();
    for r in 0..view.num_ranks() {
        by_group.entry(view.group_of(r)).or_default().push(r);
    }
    let root_group = view.group_of(root);
    let mut lists = Vec::new();
    for (g, mut members) in by_group {
        members.sort_unstable();
        let leader = if g == root_group { root } else { members[0] };
        members.retain(|&m| m != leader);
        let mut list = vec![leader];
        list.extend(members);
        if g == root_group {
            lists.insert(0, list);
        } else {
            lists.push(list);
        }
    }
    lists
}

/// Emits the two broadcast phases as steps: inter-leader rounds first,
/// then the per-group rounds packed side by side (group rank sets are
/// disjoint, so the single-ported constraint holds by construction).
fn broadcast_steps(view: &TopologyView, root: usize) -> Vec<Step> {
    let lists = group_lists(view, root);
    let leaders: Vec<usize> = lists.iter().map(|l| l[0]).collect();
    let mut steps = Vec::new();
    for round in doubling_rounds(leaders.len()) {
        let mut step = Step::with_capacity(round.len(), round.len());
        for (fi, ti) in round {
            step.push(
                leaders[fi],
                leaders[ti],
                [BlockId::Full],
                TransferKind::Copy,
            );
        }
        steps.push(step);
    }
    let local_rounds: Vec<Vec<Vec<(usize, usize)>>> = lists
        .iter()
        .map(|list| doubling_rounds(list.len()))
        .collect();
    let depth = local_rounds.iter().map(Vec::len).max().unwrap_or(0);
    for j in 0..depth {
        let mut step = local_step(&local_rounds, j);
        for (list, rounds) in lists.iter().zip(&local_rounds) {
            let Some(round) = rounds.get(j) else { continue };
            for &(fi, ti) in round {
                step.push(list[fi], list[ti], [BlockId::Full], TransferKind::Copy);
            }
        }
        steps.push(step);
    }
    steps
}

/// The reduce phases are the broadcast phases mirrored: local rounds run
/// first and in reverse with flipped edges (children fold into their
/// parent with [`TransferKind::Reduce`]), then the leader rounds fold into
/// the root.
fn reduce_steps(view: &TopologyView, root: usize) -> Vec<Step> {
    let lists = group_lists(view, root);
    let leaders: Vec<usize> = lists.iter().map(|l| l[0]).collect();
    let mut steps = Vec::new();
    let local_rounds: Vec<Vec<Vec<(usize, usize)>>> = lists
        .iter()
        .map(|list| doubling_rounds(list.len()))
        .collect();
    let depth = local_rounds.iter().map(Vec::len).max().unwrap_or(0);
    // Deepest rounds first: reversing the broadcast order makes every
    // child fold in before its parent is itself consumed upwards.
    for j in (0..depth).rev() {
        let mut step = local_step(&local_rounds, j);
        for (list, rounds) in lists.iter().zip(&local_rounds) {
            let Some(round) = rounds.get(j) else { continue };
            for &(fi, ti) in round {
                step.push(list[ti], list[fi], [BlockId::Full], TransferKind::Reduce);
            }
        }
        steps.push(step);
    }
    for round in doubling_rounds(leaders.len()).into_iter().rev() {
        let mut step = Step::with_capacity(round.len(), round.len());
        for (fi, ti) in round {
            step.push(
                leaders[ti],
                leaders[fi],
                [BlockId::Full],
                TransferKind::Reduce,
            );
        }
        steps.push(step);
    }
    steps
}

/// An empty step sized for round `j` of every group's local rounds: one
/// whole-vector message per pair.
fn local_step(local_rounds: &[Vec<Vec<(usize, usize)>>], j: usize) -> Step {
    let pairs = local_rounds
        .iter()
        .filter_map(|rounds| rounds.get(j))
        .map(Vec::len)
        .sum();
    Step::with_capacity(pairs, pairs)
}

/// Synthesizes the multilevel schedule for `collective` on `view`.
///
/// `tiers == 1` ignores the hierarchy (one flat binomial tree — mostly a
/// debugging identity); `tiers == 2` is the leader/local composition. On a
/// single-group view both degrade to the flat tree. Supported collectives:
/// broadcast, reduce and allreduce (reduce-to-root composed with
/// broadcast).
pub fn build(
    collective: Collective,
    view: &TopologyView,
    root: usize,
    tiers: usize,
) -> Option<Schedule> {
    let p = view.num_ranks();
    if p < 2 || root >= p || !(1..=2).contains(&tiers) {
        return None;
    }
    // A flat binomial is the one-group special case of the same emitters.
    let flat;
    let view = if tiers == 1 && view.num_groups() > 1 {
        flat = TopologyView::clustered(&[p], (1.0, 1.0), (1.0, 1.0)).ok()?;
        // `clustered` groups ranks 0..p identically; group ids differ from
        // the original view but only the grouping matters here.
        &flat
    } else {
        view
    };
    let name = crate::synth::SynthSpec::Multilevel { tiers }.name();
    let mut sched = Schedule::new(p, collective, name, root);
    let steps = match collective {
        Collective::Broadcast => broadcast_steps(view, root),
        Collective::Reduce => reduce_steps(view, root),
        Collective::Allreduce => {
            // Non-rooted: fold into rank 0, then fan back out.
            let mut s = reduce_steps(view, 0);
            s.extend(broadcast_steps(view, 0));
            s
        }
        _ => return None,
    };
    for step in steps {
        sched.push_step(step);
    }
    Some(sched)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn views() -> Vec<TopologyView> {
        vec![
            TopologyView::full_mesh(16, 10.0, 1.0),
            TopologyView::clustered(&[4, 4, 4, 4], (100.0, 0.3), (5.0, 25.0)).unwrap(),
            TopologyView::clustered(&[5, 3, 7], (100.0, 0.3), (5.0, 25.0)).unwrap(),
            TopologyView::clustered(&[1, 1, 1, 1, 1], (10.0, 1.0), (10.0, 1.0)).unwrap(),
        ]
    }

    #[test]
    fn all_collectives_validate_on_all_views() {
        for view in views() {
            for collective in [
                Collective::Broadcast,
                Collective::Reduce,
                Collective::Allreduce,
            ] {
                for tiers in [1, 2] {
                    let root = if collective.is_rooted() { 2 } else { 0 };
                    let sched = build(collective, &view, root, tiers)
                        .unwrap_or_else(|| panic!("{collective:?} tiers={tiers}"));
                    sched
                        .validate()
                        .unwrap_or_else(|e| panic!("{collective:?} tiers={tiers}: {e}"));
                    sched
                        .validate()
                        .unwrap_or_else(|e| panic!("{collective:?} tiers={tiers}: {e:?}"));
                }
            }
        }
    }

    #[test]
    fn leader_rounds_scale_with_groups_not_ranks() {
        // 4 groups of 8: the slow tier should see exactly log2(4) = 2
        // cross-group rounds, not log2(32) = 5.
        let view = TopologyView::clustered(&[8, 8, 8, 8], (100.0, 0.3), (5.0, 25.0)).unwrap();
        let sched = build(Collective::Broadcast, &view, 0, 2).unwrap();
        let cross_steps = sched
            .steps
            .iter()
            .filter(|s| {
                s.messages()
                    .any(|m| view.group_of(m.src) != view.group_of(m.dst))
            })
            .count();
        assert_eq!(cross_steps, 2);
        assert_eq!(sched.num_steps(), 2 + 3); // + log2(8) local rounds
    }

    #[test]
    fn unsupported_collectives_are_refused() {
        let view = TopologyView::full_mesh(8, 10.0, 1.0);
        assert!(build(Collective::Alltoall, &view, 0, 2).is_none());
        assert!(build(Collective::Allgather, &view, 0, 2).is_none());
        assert!(build(Collective::Broadcast, &view, 0, 3).is_none());
    }
}
