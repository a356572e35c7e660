//! The runtime selection API: O(log n) breakpoint lookup over a loaded
//! decision table, plus a small LRU of compiled schedules so repeated
//! invocations of the tuned pick pay the schedule build + compile cost once.
//!
//! The lookup structure itself — [`SelectorIndex`] — is immutable after
//! construction and shared behind an `Arc`, so the single-threaded
//! [`Selector`] and the concurrent [`crate::service::ServiceSelector`]
//! resolve every query through literally the same code and data: a pick can
//! never differ between the serial and the serving path.

use std::collections::HashSet;
use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bine_sched::{Collective, CompiledSchedule, ProviderSet, SizeDist};

use crate::service::cache::Lru;
use crate::table::{slug, DecisionTable, Entry};

/// The tuned pick for one `(collective, nodes, bytes)` query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tuned<'a> {
    /// Base algorithm name (no `+segS` suffix), buildable via
    /// [`bine_sched::build`] together with [`Tuned::segments`].
    pub algorithm: &'a str,
    /// Pipeline segment count (1 = unsegmented).
    pub segments: usize,
}

/// One loaded entry: the owned pick name plus the split the selector hands
/// out without allocating, and the committed score metadata the adaptive
/// layer (see [`crate::adapt`]) compares observed timings against.
pub(crate) struct Slot {
    /// Full pick name as committed (e.g. `"bine-large+seg8"`), shared by
    /// every slot of the same pick.
    pub(crate) pick: Arc<str>,
    /// Length of the base-name prefix of `pick`.
    pub(crate) base_len: usize,
    /// Pipeline segment count.
    pub(crate) segments: usize,
    /// The tuned grid point's vector size — the size candidates are
    /// re-scored at when this slot's observed cost diverges.
    pub(crate) vector_bytes: u64,
    /// The committed modelled cost of `pick` at the grid point.
    pub(crate) time_us: f64,
}

/// Per-`(collective, dist)` lookup index: ascending node breakpoints, each
/// with its ascending `(bytes, slot)` breakpoints. The regular grid of a
/// collective lives under `dist == None`; irregular (v-variant) grids under
/// their [`SizeDist`] descriptor.
type NodeIndex = Vec<(usize, Vec<(u64, u32)>)>;

/// Default capacity of the compiled-schedule LRU: enough for every vector
/// size of one sweep at a fixed node count without eviction.
pub const DEFAULT_CACHE_CAPACITY: usize = 16;

/// The immutable pre-indexed form of one system's decision table: slots in
/// canonical order plus the two-level breakpoint index. Never mutated after
/// construction, so it is freely shared (`Arc`) between threads.
pub struct SelectorIndex {
    system: String,
    slots: Vec<Slot>,
    index: Vec<((Collective, Option<SizeDist>), NodeIndex)>,
    providers: ProviderSet,
}

impl SelectorIndex {
    /// Builds the index from an in-memory decision table.
    ///
    /// # Panics
    ///
    /// On duplicate `(collective, nodes, bytes)` grid points: a table with
    /// duplicate keys has no well-defined policy (the resolved pick would
    /// depend on sort stability). Tables loaded through
    /// [`DecisionTable::from_json`] are already rejected there with an
    /// `Err`; this guards tables built programmatically.
    pub fn from_table(table: &DecisionTable) -> SelectorIndex {
        if let Some((c, _, n, b)) = table.duplicate_key() {
            panic!(
                "decision table {:?} has duplicate entries for \
                 (collective: {}, nodes: {n}, bytes: {b})",
                table.system,
                c.name()
            );
        }
        // Canonical order keeps each `(collective, dist)` group and each
        // node row contiguous, so both index levels are runs of `sorted`.
        let mut sorted: Vec<&Entry> = table.entries.iter().collect();
        sorted.sort_by_key(|e| e.canonical_key());
        let mut picks: HashSet<Arc<str>> = HashSet::new();
        let mut slots = Vec::with_capacity(sorted.len());
        let mut push_slot = |e: &Entry| {
            let pick = match picks.get(e.pick.as_str()) {
                Some(pick) => Arc::clone(pick),
                None => {
                    let pick: Arc<str> = e.pick.as_str().into();
                    picks.insert(Arc::clone(&pick));
                    pick
                }
            };
            slots.push(Slot {
                pick,
                base_len: e.algorithm().len(),
                segments: e.segments(),
                vector_bytes: e.vector_bytes,
                time_us: e.time_us,
            });
            (e.vector_bytes, (slots.len() - 1) as u32)
        };
        let mut index: Vec<((Collective, Option<SizeDist>), NodeIndex)> = Vec::new();
        for group in sorted.chunk_by(|a, b| (a.collective, a.dist) == (b.collective, b.dist)) {
            let rows = group.chunk_by(|a, b| a.nodes == b.nodes);
            let node_index: NodeIndex = rows
                .map(|row| (row[0].nodes, row.iter().map(|e| push_slot(e)).collect()))
                .collect();
            index.push(((group[0].collective, group[0].dist), node_index));
        }
        SelectorIndex {
            system: table.system.clone(),
            slots,
            index,
            providers: system_providers(&table.system),
        }
    }

    /// The system this index was tuned for.
    pub fn system(&self) -> &str {
        &self.system
    }

    /// The provider set every schedule build of this index routes through:
    /// the static catalog plus, for systems with a known topology model,
    /// the topology-aware synthesizers fed by
    /// [`bine_net::view::system_view`]. Committed `synth:` picks rebuild
    /// through the same pinned view derivation the tuner scored them with.
    pub fn providers(&self) -> &ProviderSet {
        &self.providers
    }

    /// The tuned `(algorithm, segments)` for a configuration, by floor
    /// breakpoint lookup: the entry at the largest tuned node count ≤
    /// `nodes` and, within it, the largest tuned vector size ≤ `bytes`
    /// (clamped to the smallest breakpoint below the grid). Two binary
    /// searches, no allocation. `None` only when the table has no entries
    /// for `collective`.
    pub fn choose(&self, collective: Collective, nodes: usize, bytes: u64) -> Option<Tuned<'_>> {
        self.tuned(self.slot_index(collective, nodes, bytes)?)
    }

    /// The tuned `(algorithm, segments)` for an irregular (v-variant)
    /// configuration, resolved against the grid tuned for `dist`. Falls
    /// back to the regular (equal-counts) grid when the table carries no
    /// entries for that distribution — a selector over an older table keeps
    /// answering rather than returning `None` for every irregular query.
    ///
    /// On a dist-grid hit the returned pick names a v-variant
    /// ([`bine_sched::irregular_algorithms`]), buildable via
    /// [`bine_sched::build_irregular`] with the caller's real counts; on
    /// regular-grid fallback it names a catalog algorithm (the equal-counts
    /// pick), which the caller can run as-is when the imbalance is mild or
    /// map onto its nearest v-variant.
    pub fn choose_irregular(
        &self,
        collective: Collective,
        dist: SizeDist,
        nodes: usize,
        bytes: u64,
    ) -> Option<Tuned<'_>> {
        match self.slot_index_for(collective, Some(dist), nodes, bytes) {
            Some(slot) => self.tuned(slot),
            None => self.choose(collective, nodes, bytes),
        }
    }

    fn tuned(&self, slot_idx: u32) -> Option<Tuned<'_>> {
        let slot = &self.slots[slot_idx as usize];
        Some(Tuned {
            algorithm: &slot.pick[..slot.base_len],
            segments: slot.segments,
        })
    }

    /// The floor-breakpoint lookup shared by every `choose`/`compiled`
    /// entry point (serial and concurrent): all of them must always resolve
    /// a query to the same table entry. Compiled paths resolve against the
    /// regular grid (irregular schedules need real per-rank counts, which a
    /// `(nodes, bytes)` key cannot carry).
    pub(crate) fn slot_index(
        &self,
        collective: Collective,
        nodes: usize,
        bytes: u64,
    ) -> Option<u32> {
        self.slot_index_for(collective, None, nodes, bytes)
    }

    fn slot_index_for(
        &self,
        collective: Collective,
        dist: Option<SizeDist>,
        nodes: usize,
        bytes: u64,
    ) -> Option<u32> {
        let (_, node_index) = self.index.iter().find(|(k, _)| *k == (collective, dist))?;
        let ni = floor_index(node_index, |&(n, _)| n <= nodes);
        let (_, sizes) = &node_index[ni];
        let si = floor_index(sizes, |&(b, _)| b <= bytes);
        Some(sizes[si].1)
    }

    /// The loaded slot behind `slot_idx` — the adaptive layer reads the
    /// committed pick and its modelled score from here.
    pub(crate) fn slot(&self, slot_idx: u32) -> &Slot {
        &self.slots[slot_idx as usize]
    }
}

/// Runtime algorithm selector over one system's decision table.
///
/// [`Selector::choose`] is allocation-free: the table is pre-indexed at
/// load time and lookups are two binary searches returning borrowed names
/// (covered by an allocation-counting test). [`Selector::compiled`]
/// additionally builds + compiles the picked schedule, memoised in an LRU.
///
/// The selector is single-threaded (`compiled` takes `&mut self`); for a
/// shared, concurrent serving front-end over the same index see
/// [`crate::service::ServiceSelector`].
pub struct Selector {
    index: Arc<SelectorIndex>,
    /// Keyed by `(collective, nodes, resolved slot)` — the same LRU type
    /// every shard of the concurrent service uses.
    cache: Lru<(Collective, usize, u32)>,
}

impl Selector {
    /// Builds a selector from an in-memory decision table.
    pub fn from_table(table: &DecisionTable) -> Selector {
        Self::from_index(Arc::new(SelectorIndex::from_table(table)))
    }

    /// Builds a selector over an existing shared index.
    pub fn from_index(index: Arc<SelectorIndex>) -> Selector {
        Selector {
            index,
            cache: Lru::new(DEFAULT_CACHE_CAPACITY),
        }
    }

    /// Sets the compiled-schedule LRU capacity. A capacity of 0 is clamped
    /// to 1 (a cache that can hold nothing cannot satisfy `compiled`);
    /// shrinking below the current population evicts the oldest lines
    /// immediately.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Selector {
        self.cache.set_capacity(capacity);
        self
    }

    /// Loads the committed decision table for `system` (display name or
    /// slug, e.g. `"MareNostrum 5"` or `"marenostrum5"`) from the tuning
    /// directory resolved by [`default_tuning_dir`].
    ///
    /// An unknown system is an `Err` listing every system that *does* have
    /// a committed table in the resolved directory, so a typo'd name says
    /// what it could have been instead of a bare file-not-found.
    pub fn load(system: &str) -> Result<Selector, String> {
        let dir = default_tuning_dir()?;
        let path = dir.join(format!("{}.json", slug(system)));
        if !path.is_file() {
            let available = available_systems(&dir);
            let available = if available.is_empty() {
                "none".to_string()
            } else {
                available.join(", ")
            };
            return Err(format!(
                "no decision table for system {system:?} in {}; available systems: {available}",
                dir.display()
            ));
        }
        Self::load_from(&path)
    }

    /// Loads a decision table from an explicit path.
    pub fn load_from(path: &Path) -> Result<Selector, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read decision table {}: {e}", path.display()))?;
        let table = DecisionTable::from_json(&text)
            .map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
        Ok(Self::from_table(&table))
    }

    /// The system this selector was tuned for.
    pub fn system(&self) -> &str {
        self.index.system()
    }

    /// The shared immutable index behind this selector.
    pub fn index(&self) -> &Arc<SelectorIndex> {
        &self.index
    }

    /// The tuned `(algorithm, segments)` for a configuration; see
    /// [`SelectorIndex::choose`] for the floor-breakpoint semantics.
    pub fn choose(&self, collective: Collective, nodes: usize, bytes: u64) -> Option<Tuned<'_>> {
        self.index.choose(collective, nodes, bytes)
    }

    /// The tuned pick for an irregular (v-variant) configuration; see
    /// [`SelectorIndex::choose_irregular`] for the dist-grid and fallback
    /// semantics.
    pub fn choose_irregular(
        &self,
        collective: Collective,
        dist: SizeDist,
        nodes: usize,
        bytes: u64,
    ) -> Option<Tuned<'_>> {
        self.index.choose_irregular(collective, dist, nodes, bytes)
    }

    /// The compiled schedule of the tuned pick at `nodes` ranks, built on
    /// demand and memoised in a `DEFAULT_CACHE_CAPACITY`-entry LRU (keyed
    /// by the resolved entry and the actual rank count, so off-grid node
    /// counts get their own compilation).
    ///
    /// Rooted collectives (broadcast in the committed tables) are built
    /// with **root 0** — the root used throughout the harness and the
    /// tuning sweeps. For a different root, take [`Selector::choose`]'s
    /// pick and build the schedule via `bine_sched::build` directly.
    pub fn compiled(
        &mut self,
        collective: Collective,
        nodes: usize,
        bytes: u64,
    ) -> Option<Arc<CompiledSchedule>> {
        let slot_idx = self.index.slot_index(collective, nodes, bytes)?;
        let key = (collective, nodes, slot_idx);
        if let Some(hit) = self.cache.get(&key) {
            return Some(hit);
        }
        let pick = &self.index.slot(slot_idx).pick;
        let compiled = Arc::new(self.index.providers.compile(collective, pick, nodes, 0)?);
        self.cache.insert(key, compiled.clone());
        Some(compiled)
    }

    /// Number of compiled schedules currently cached.
    pub fn cached_schedules(&self) -> usize {
        self.cache.len()
    }
}

/// The provider set for a system display name or slug: catalog plus the
/// synthesizers when the slug names a modelled topology
/// ([`bine_net::view::system_topology`]), catalog only otherwise. A
/// synthesized pick in a table for an unmodelled system simply fails to
/// build (`None`), exactly like any other unbuildable pick.
pub fn system_providers(system: &str) -> ProviderSet {
    let slug = slug(system);
    if bine_net::view::system_topology(&slug, 2).is_none() {
        return ProviderSet::catalog_only();
    }
    ProviderSet::with_synth(Arc::new(move |nodes| {
        bine_net::view::system_view(&slug, nodes)
    }))
}

/// Index of the last element satisfying `below` (floor semantics), clamped
/// to the first element when the query is below every breakpoint.
fn floor_index<T>(sorted: &[T], below: impl FnMut(&T) -> bool) -> usize {
    sorted.partition_point(below).saturating_sub(1)
}

/// Slugs of the systems with a committed decision table (`*.json`) under
/// `dir`, sorted — the "did you mean" list of [`Selector::load`]'s
/// unknown-system error. An unreadable directory yields an empty list.
pub fn available_systems(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .filter_map(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .collect();
    names.sort();
    names
}

/// Resolves the `tuning/` directory holding the committed decision tables.
///
/// Probes, in order, and returns the first that exists:
///
/// 1. the `BINE_TUNING_DIR` environment variable (when set and non-empty —
///    and authoritative: pointing it at a directory that does not exist is
///    an error, never a silent fall-through to the other probes),
/// 2. a `tuning/` directory next to the running executable (so deployed
///    binaries find tables shipped alongside them),
/// 3. the repository checkout this binary was built from (two levels above
///    this crate's manifest — a compile-time path, only meaningful on the
///    build machine).
///
/// When the resolution fails the error lists every probed location, so a
/// mis-deployed binary says exactly where it looked.
pub fn default_tuning_dir() -> Result<PathBuf, String> {
    resolve_tuning_dir(
        std::env::var_os("BINE_TUNING_DIR"),
        std::env::current_exe()
            .ok()
            .and_then(|exe| exe.parent().map(Path::to_path_buf)),
    )
}

/// The probe order behind [`default_tuning_dir`], with the process-global
/// inputs (environment, executable path) passed in so it is unit-testable
/// without mutating the test process's environment.
fn resolve_tuning_dir(
    env_dir: Option<OsString>,
    exe_dir: Option<PathBuf>,
) -> Result<PathBuf, String> {
    let mut probed: Vec<String> = Vec::new();
    if let Some(dir) = env_dir.filter(|d| !d.is_empty()) {
        let dir = PathBuf::from(dir);
        if dir.is_dir() {
            return Ok(dir);
        }
        // Explicitly configured but wrong: error out rather than silently
        // serving tables from somewhere the operator did not point at.
        return Err(format!(
            "BINE_TUNING_DIR is set to {} but that is not a directory; \
             create it or unset the variable",
            dir.display()
        ));
    }
    if let Some(exe_dir) = exe_dir {
        let dir = exe_dir.join("tuning");
        if dir.is_dir() {
            return Ok(dir);
        }
        probed.push(format!("{} (next to the executable)", dir.display()));
    }
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tuning");
    if dir.is_dir() {
        return Ok(dir);
    }
    probed.push(format!("{} (build-machine checkout)", dir.display()));
    Err(format!(
        "no tuning/ directory with committed decision tables found; probed: {}. \
         Set BINE_TUNING_DIR, place a tuning/ directory next to the executable, \
         or load an explicit path with Selector::load_from",
        probed.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Entry, ScoreModel};

    fn table() -> DecisionTable {
        let e = |nodes: usize, bytes: u64, pick: &str| Entry {
            collective: Collective::Allreduce,
            dist: None,
            nodes,
            vector_bytes: bytes,
            pick: pick.into(),
            model: ScoreModel::Sync,
            time_us: 1.0,
        };
        DecisionTable {
            system: "Testbox".into(),
            entries: vec![
                e(16, 32, "recursive-doubling"),
                e(16, 1 << 20, "bine-large"),
                e(64, 32, "recursive-doubling"),
                e(64, 1 << 20, "bine-large+seg8"),
            ],
        }
    }

    #[test]
    fn choose_uses_floor_breakpoints_and_clamps() {
        let s = Selector::from_table(&table());
        // Exact grid points.
        let t = s.choose(Collective::Allreduce, 16, 32).unwrap();
        assert_eq!((t.algorithm, t.segments), ("recursive-doubling", 1));
        let t = s.choose(Collective::Allreduce, 64, 1 << 20).unwrap();
        assert_eq!((t.algorithm, t.segments), ("bine-large", 8));
        // Off-grid: floor on both axes (40 → the 16-node row, 4 MiB → the
        // 1 MiB breakpoint).
        let t = s.choose(Collective::Allreduce, 40, 1 << 22).unwrap();
        assert_eq!((t.algorithm, t.segments), ("bine-large", 1));
        // Below the grid: clamped to the smallest breakpoints.
        let t = s.choose(Collective::Allreduce, 4, 1).unwrap();
        assert_eq!((t.algorithm, t.segments), ("recursive-doubling", 1));
        // Unknown collective: None.
        assert!(s.choose(Collective::Broadcast, 16, 32).is_none());
    }

    #[test]
    fn irregular_queries_hit_the_dist_grid_and_fall_back_to_regular() {
        let mut t = table();
        t.entries[0].collective = Collective::Allgather; // regular fallback row
        t.entries[1].collective = Collective::Allgather;
        t.entries.push(Entry {
            collective: Collective::Allgather,
            dist: Some(SizeDist::OneHeavy),
            nodes: 16,
            vector_bytes: 32,
            pick: "ring".into(),
            model: ScoreModel::Sync,
            time_us: 2.0,
        });
        let s = Selector::from_table(&t);
        // The dist grid answers dist-keyed queries (floor semantics apply).
        let i = s
            .choose_irregular(Collective::Allgather, SizeDist::OneHeavy, 64, 1 << 20)
            .unwrap();
        assert_eq!((i.algorithm, i.segments), ("ring", 1));
        // A distribution the table never tuned falls back to the regular
        // grid instead of answering None.
        let f = s
            .choose_irregular(Collective::Allgather, SizeDist::Linear, 16, 32)
            .unwrap();
        assert_eq!((f.algorithm, f.segments), ("recursive-doubling", 1));
        // The regular choose path never sees the dist rows.
        let r = s.choose(Collective::Allgather, 16, 32).unwrap();
        assert_eq!(r.algorithm, "recursive-doubling");
    }

    #[test]
    fn compiled_schedules_are_cached_and_lru_evicted() {
        let mut s = Selector::from_table(&table());
        let a = s.compiled(Collective::Allreduce, 16, 32).unwrap();
        let b = s.compiled(Collective::Allreduce, 16, 32).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second call must hit the cache");
        assert_eq!(s.cached_schedules(), 1);
        // Distinct node counts compile separately even for one entry.
        let c = s.compiled(Collective::Allreduce, 32, 32).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.num_ranks, 32);
        assert_eq!(s.cached_schedules(), 2);
        // Shrinking the capacity evicts down to the new bound (0 clamps to 1).
        let s = s.with_cache_capacity(0);
        assert_eq!(s.cached_schedules(), 1);
    }

    #[test]
    fn tuning_dir_probe_order_and_error() {
        // The committed checkout path resolves (this test runs on the build
        // machine), whatever the exe dir holds.
        let dir = resolve_tuning_dir(None, None).unwrap();
        assert!(dir.ends_with("tuning") || dir.is_dir());

        // An existing env dir wins over everything.
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
        let env_dir = manifest.join("src");
        let got = resolve_tuning_dir(Some(env_dir.clone().into_os_string()), None).unwrap();
        assert_eq!(got, env_dir);

        // A missing env dir is an error (the operator pointed somewhere
        // explicit; silently serving other tables would be worse), naming
        // the variable and the bad path.
        let err = resolve_tuning_dir(Some("/definitely/not/here".into()), None).unwrap_err();
        assert!(err.contains("BINE_TUNING_DIR"), "{err}");
        assert!(err.contains("/definitely/not/here"), "{err}");

        // An exe dir with a tuning/ sibling is preferred over the
        // compile-time fallback.
        let repo_root = manifest.join("../..").canonicalize().unwrap();
        let got = resolve_tuning_dir(None, Some(repo_root.clone())).unwrap();
        assert_eq!(got, repo_root.join("tuning"));
    }

    #[test]
    fn tuning_dir_error_lists_the_probed_locations() {
        // With no env override and a bogus exe dir, the probe list in a
        // failing error must name the exe-relative location. The
        // compile-time fallback exists on the build machine, so the full
        // everything-missing error is only reachable off-checkout; what is
        // testable here is that a bad exe probe is reported when it loses.
        let got = resolve_tuning_dir(None, Some(PathBuf::from("/nonexistent/exe"))).unwrap();
        assert!(got.is_dir(), "checkout fallback must resolve in-repo");

        let err = resolve_tuning_dir(Some("/nonexistent/env".into()), None).unwrap_err();
        assert!(err.contains("/nonexistent/env"), "{err}");
    }

    #[test]
    #[should_panic(expected = "duplicate entries")]
    fn building_an_index_from_a_duplicated_table_panics() {
        let mut t = table();
        let dup = t.entries[0].clone();
        t.entries.push(dup);
        let _ = SelectorIndex::from_table(&t);
    }
}
