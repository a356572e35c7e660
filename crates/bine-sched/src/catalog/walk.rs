//! The one walk over what the catalog builds: every name a row answers to —
//! listed, unlisted and v-variant — and both synthesizers, each as the
//! [`Request`]s a sweep or a test suite would otherwise nest its own loops
//! for. `bine-bench sweep validate` and the suites that enumerate schedules
//! iterate [`walk`] over the rank counts they can afford and filter on a
//! request's fields; a property test draws an index into it.

use super::{build, build_irregular, rows, Row};
use crate::collectives::SizeDist;
use crate::provider::ProviderSet;
use crate::schedule::{Collective, Counts, Schedule};
use crate::synth::{is_synthesizable, synth_algorithms, TopologyView};

/// The pipeline chunk counts every name is asked for (1 is the bare name).
const SEGMENTS: [usize; 3] = [1, 2, 4];

/// Island sizes of the clustered fixture views the synthesizers are walked
/// on: uneven islands, two even ones, a small beside a large.
const FIXTURE_VIEWS: [&[usize]; 3] = [&[4, 3, 5], &[8, 8], &[2, 6]];

fn fixture_view(groups: &[usize]) -> TopologyView {
    TopologyView::clustered(groups, (100.0, 0.3), (5.0, 25.0)).expect("no fixture island is empty")
}

/// The roots every rank count is walked at: the first two ranks, an interior
/// one, the last, and the first that names no rank — where nothing builds.
fn roots(p: usize) -> Vec<usize> {
    let mut roots = vec![0, 1, p / 3, p.saturating_sub(1), p];
    roots.sort_unstable();
    roots.dedup();
    roots
}

/// Who answers a [`Request`].
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// [`build`], by this row.
    Regular(&'static Row),
    /// [`build_irregular`], by this row, under this distribution's counts
    /// with the heavy rank at the root.
    Irregular(&'static Row, SizeDist),
    /// A synthesizer, on the clustered fixture view with these island sizes.
    Synth(&'static [usize]),
}

/// One configuration of the [`walk`].
#[derive(Debug, Clone)]
pub struct Request {
    /// The collective asked for.
    pub collective: Collective,
    /// The algorithm name asked for, `+seg{S}` suffix included — what the
    /// built schedule's `algorithm` reads.
    pub name: String,
    /// The rank count.
    pub p: usize,
    /// The root; used by the rooted collectives only, checked by all.
    pub root: usize,
    /// The chunk count `name` carries (1 for a bare name).
    pub segments: usize,
    /// Who builds it.
    pub source: Source,
}

impl Request {
    /// The catalog row behind the request; `None` for a synthesizer's.
    pub fn row(&self) -> Option<&'static Row> {
        match self.source {
            Source::Regular(row) | Source::Irregular(row, _) => Some(row),
            Source::Synth(_) => None,
        }
    }

    /// Whether [`Request::build`] must answer `Some`: the row's
    /// [`Row::builds_at`]. A synthesizer must build at root 0 — where its
    /// candidates are enumerated — and cannot past the last rank; in between
    /// it may (`None`: ForestColl's tree count need not exist from another
    /// root).
    pub fn must_build(&self) -> Option<bool> {
        match self.row() {
            Some(row) => Some(row.builds_at(self.p, self.root)),
            None if self.root == 0 => Some(true),
            None if self.root >= self.p => Some(false),
            None => None,
        }
    }

    /// Whether the request only repeats the one at root 0: a regular name of
    /// a collective without a root, at another root that names a rank — the
    /// same schedule, from a builder that ignores the root. What a sweep
    /// that pays per schedule may skip.
    pub fn repeats_root_zero(&self) -> bool {
        let ignored = matches!(self.source, Source::Regular(_)) && !self.collective.is_rooted();
        ignored && (1..self.p).contains(&self.root)
    }

    /// The counts a v-variant request is built under: its distribution's,
    /// heavy rank at the root (rank 0 for a root that names no rank).
    pub fn counts(&self) -> Option<Counts> {
        let Source::Irregular(_, dist) = self.source else {
            return None;
        };
        let heavy = if self.root < self.p { self.root } else { 0 };
        Some(dist.counts(self.p, heavy))
    }

    /// The configuration, for a failure message.
    pub fn label(&self) -> String {
        let (collective, name, p, root) = (self.collective.name(), &self.name, self.p, self.root);
        match self.source {
            Source::Regular(_) => format!("{collective}/{name} p={p} root={root}"),
            Source::Irregular(_, dist) => {
                format!("{collective}v/{name} {} p={p} root={root}", dist.name())
            }
            Source::Synth(groups) => format!("{collective}/{name} on {groups:?} root={root}"),
        }
    }

    /// Asks the source for the schedule. Total, like the builders behind it.
    pub fn build(&self) -> Option<Schedule> {
        let (collective, name, p, root) = (self.collective, &self.name, self.p, self.root);
        match self.source {
            Source::Regular(_) => build(collective, name, p, root),
            Source::Irregular(..) => build_irregular(collective, name, p, root, &self.counts()?),
            Source::Synth(groups) => {
                ProviderSet::with_view(fixture_view(groups)).build(collective, name, p, root)
            }
        }
    }
}

/// Every request of the walk at the rank counts `ranks`: each regular name
/// (row order) × `ranks` × roots, then each v-variant name × every
/// [`SizeDist`] × `ranks` (from 1: no counts cover zero ranks) × roots, then
/// both synthesizers' candidates on the fixture views × roots — each bare
/// and as `+seg2` / `+seg4`. The roots of a rank count are ranks 0, 1,
/// `p / 3` and `p − 1`, and `p` itself, which names no rank.
pub fn walk(ranks: &[usize]) -> Vec<Request> {
    let mut requests = Vec::new();
    let mut ask = |collective, base: &str, p, source| {
        for root in roots(p) {
            for segments in SEGMENTS {
                let name = match segments {
                    1 => base.to_owned(),
                    _ => format!("{base}+seg{segments}"),
                };
                requests.push(Request {
                    collective,
                    name,
                    p,
                    root,
                    segments,
                    source,
                });
            }
        }
    };
    for collective in Collective::ALL {
        for row in rows(collective) {
            let Some(name) = row.name() else { continue };
            for &p in ranks {
                ask(collective, name, p, Source::Regular(row));
            }
        }
    }
    for collective in Collective::ALL {
        for row in rows(collective) {
            let Some(name) = row.v_name else { continue };
            for dist in SizeDist::ALL {
                for &p in ranks.iter().filter(|&&p| p > 0) {
                    ask(collective, name, p, Source::Irregular(row, dist));
                }
            }
        }
    }
    for groups in FIXTURE_VIEWS {
        let view = fixture_view(groups);
        for collective in Collective::ALL.into_iter().filter(|&c| is_synthesizable(c)) {
            for id in synth_algorithms(collective, &view) {
                ask(
                    collective,
                    id.name(),
                    view.num_ranks(),
                    Source::Synth(groups),
                );
            }
        }
    }
    requests
}
