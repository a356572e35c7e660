//! The collective contract as a literal table: at p = 4, root = 1, who starts
//! with which blocks at each granularity and what each rank must end with.

use bine_sched::BlockId::{self, Full, Segment as S};
use bine_sched::{Collective, Contract, Counts, Granularity};

const P: usize = 4;
const ROOT: usize = 1;

fn contract(collective: Collective) -> Contract<'static> {
    Contract {
        collective,
        num_ranks: P,
        root: ROOT,
        counts: None,
    }
}

const FULL: Granularity = Granularity {
    full: true,
    segments: false,
};
const SEGMENTS: Granularity = Granularity {
    full: false,
    segments: true,
};
const BOTH: Granularity = Granularity {
    full: true,
    segments: true,
};

fn pw(origin: u32, dest: u32) -> BlockId {
    BlockId::Pairwise { origin, dest }
}

fn segments() -> Vec<BlockId> {
    vec![S(0), S(1), S(2), S(3)]
}

/// `initial` and `required` of every rank, in rank order.
fn per_rank(c: &Contract<'_>, g: Granularity) -> (Vec<Vec<BlockId>>, Vec<Vec<Vec<BlockId>>>) {
    (
        (0..P).map(|r| c.initial(r, g)).collect(),
        (0..P).map(|r| c.required(r)).collect(),
    )
}

#[test]
fn granularity_is_read_off_the_blocks_a_schedule_moves() {
    assert_eq!(Granularity::of([Full, Full]), FULL);
    assert_eq!(Granularity::of([S(0), S(3)]), SEGMENTS);
    assert_eq!(Granularity::of([S(2), Full]), BOTH);
    // Nothing moved (one rank) or pairwise blocks only: the full vector.
    assert_eq!(Granularity::of([]), FULL);
    assert_eq!(Granularity::of([pw(0, 1)]), FULL);
}

#[test]
fn the_vector_collectives_start_and_end_with_the_vector() {
    let nothing: Vec<BlockId> = vec![];
    let vector = vec![vec![Full], segments()];
    let full_and_segments = [vec![Full], segments()].concat();
    for (g, held) in [
        (FULL, vec![Full]),
        (SEGMENTS, segments()),
        (BOTH, full_and_segments),
    ] {
        // Broadcast: the root alone holds the vector, everybody must.
        let (initial, required) = per_rank(&contract(Collective::Broadcast), g);
        let at_root = vec![
            nothing.clone(),
            held.clone(),
            nothing.clone(),
            nothing.clone(),
        ];
        assert_eq!(initial, at_root);
        assert_eq!(required, vec![vector.clone(); P]);
        // Reduce: everybody holds a vector, the root alone must end with it.
        let (initial, required) = per_rank(&contract(Collective::Reduce), g);
        assert_eq!(initial, vec![held.clone(); P]);
        let of_root = vec![vec![vec![]], vector.clone(), vec![vec![]], vec![vec![]]];
        assert_eq!(required, of_root);
        // Allreduce: everybody holds one, everybody must end with it.
        let (initial, required) = per_rank(&contract(Collective::Allreduce), g);
        assert_eq!(initial, vec![held.clone(); P]);
        assert_eq!(required, vec![vector.clone(); P]);
    }
}

#[test]
fn the_segment_collectives_ignore_the_granularity() {
    let nothing: Vec<BlockId> = vec![];
    let own = |r: u32| vec![S(r)];
    let owns: Vec<Vec<BlockId>> = (0..P as u32).map(own).collect();
    let requires_own: Vec<Vec<Vec<BlockId>>> = (0..P as u32).map(|r| vec![own(r)]).collect();
    for g in [FULL, SEGMENTS, BOTH] {
        let (initial, required) = per_rank(&contract(Collective::ReduceScatter), g);
        assert_eq!(initial, vec![segments(); P]);
        assert_eq!(required, requires_own);

        let (initial, required) = per_rank(&contract(Collective::Gather), g);
        assert_eq!(initial, owns);
        let of_root = vec![vec![vec![]], vec![segments()], vec![vec![]], vec![vec![]]];
        assert_eq!(required, of_root);

        let (initial, required) = per_rank(&contract(Collective::Allgather), g);
        assert_eq!(initial, owns);
        assert_eq!(required, vec![vec![segments()]; P]);

        let (initial, required) = per_rank(&contract(Collective::Scatter), g);
        let at_root = vec![
            nothing.clone(),
            segments(),
            nothing.clone(),
            nothing.clone(),
        ];
        assert_eq!(initial, at_root);
        assert_eq!(required, requires_own);

        let (initial, required) = per_rank(&contract(Collective::Alltoall), g);
        assert_eq!(initial[2], vec![pw(2, 0), pw(2, 1), pw(2, 2), pw(2, 3)]);
        assert_eq!(
            required[2],
            vec![vec![pw(0, 2), pw(1, 2), pw(2, 2), pw(3, 2)]]
        );
        assert!((0..P).all(|r| initial[r].len() == P && required[r][0].len() == P));
    }
}

#[test]
fn a_finished_block_is_one_ranks_data_or_everybodys_sum() {
    for collective in [
        Collective::Reduce,
        Collective::Allreduce,
        Collective::ReduceScatter,
    ] {
        let c = contract(collective);
        assert_eq!([c.source(Full), c.source(S(2))], [None, None]);
    }
    for collective in [Collective::Broadcast, Collective::Scatter] {
        let c = contract(collective);
        assert_eq!([c.source(Full), c.source(S(2))], [Some(ROOT), Some(ROOT)]);
    }
    for collective in [Collective::Gather, Collective::Allgather] {
        assert_eq!(contract(collective).source(S(2)), Some(2));
    }
    assert_eq!(contract(Collective::Alltoall).source(pw(3, 0)), Some(3));
}

#[test]
fn only_a_broadcast_or_scatter_root_is_irreplaceable() {
    for collective in Collective::ALL {
        let sole = matches!(collective, Collective::Broadcast | Collective::Scatter);
        assert_eq!(
            contract(collective).sole_source(),
            sole.then_some(ROOT),
            "{collective:?}"
        );
    }
}

#[test]
fn zero_count_segments_are_held_but_not_required() {
    let counts = Counts::new(vec![2, 0, 1, 0]);
    let irregular = |collective| Contract {
        counts: Some(&counts),
        ..contract(collective)
    };
    let carrying = vec![S(0), S(2)];

    // They exist at the start, empty…
    let gather = irregular(Collective::Gather);
    assert_eq!(gather.initial(3, SEGMENTS), vec![S(3)]);
    assert_eq!(
        irregular(Collective::Scatter).initial(ROOT, SEGMENTS),
        segments()
    );
    assert_eq!(
        irregular(Collective::ReduceScatter).initial(0, SEGMENTS),
        segments()
    );

    // …and nobody has to end with one.
    assert_eq!(gather.required(ROOT), vec![carrying.clone()]);
    assert_eq!(gather.required(0), vec![vec![]]);
    assert_eq!(
        irregular(Collective::Allgather).required(3),
        vec![carrying.clone()]
    );
    for collective in [Collective::Scatter, Collective::ReduceScatter] {
        let c = irregular(collective);
        let required: Vec<_> = (0..P).map(|r| c.required(r)).collect();
        let own_if_any = vec![
            vec![vec![S(0)]],
            vec![vec![]],
            vec![vec![S(2)]],
            vec![vec![]],
        ];
        assert_eq!(required, own_if_any, "{collective:?}");
    }
    assert_eq!(
        irregular(Collective::Broadcast).required(0),
        vec![vec![Full], carrying]
    );
}
