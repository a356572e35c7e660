//! The repository's "one concept, one implementation" rules, checked over
//! the source text so `cargo test` runs them: one `#[test]` per rule, its
//! doc comment the reason. Rules the compiler holds live elsewhere: the
//! root manifest's `[workspace.lints]`, bine-bench's `autobins = false`
//! and the private `MAX_LINEAR_NODES` behind `bine_tune::affordable`.
//!
//! A scope is a path from the workspace root — a file, or the `.rs` files
//! below a directory — in which `*` matches any one name; a leading `!`
//! removes files from the scopes before it. A needle is literal text in
//! which `@` matches a run of `[A-Za-z0-9_.]` and `~` a run of spaces, both
//! possibly empty. A scope that names no file, or a function header that is
//! not found, panics: a rule never passes for want of text.

use std::fmt::Debug;
use std::fs;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

type Hit = (String, String);

fn source(file: &str) -> String {
    fs::read_to_string(format!("{ROOT}/{file}")).unwrap_or_else(|e| panic!("{file}: {e}"))
}

/// A file's text above its first `#[cfg(test)]` line: the code that ships.
fn shipped(file: &str) -> String {
    let mut text = source(file);
    if let Some(at) = text.find("#[cfg(test)]") {
        text.truncate(text[..at].rfind('\n').map_or(0, |n| n + 1));
    }
    text
}

/// Every `.rs` file at or below `at`.
fn walk(at: String) -> Vec<String> {
    let Ok(entries) = fs::read_dir(format!("{ROOT}/{at}")) else {
        return Vec::from_iter(at.ends_with(".rs").then_some(at));
    };
    let name = |e: fs::DirEntry| format!("{at}/{}", e.file_name().to_string_lossy());
    entries.flat_map(|e| walk(name(e.unwrap()))).collect()
}

/// The `.rs` files `scopes` name.
fn files(scopes: &[&str]) -> Vec<String> {
    let roots = ["crates", "src", "tests", "examples"];
    let all: Vec<String> = roots.into_iter().flat_map(|r| walk(r.into())).collect();
    let mut found: Vec<String> = Vec::new();
    for scope in scopes {
        let named: Vec<String> = all.iter().filter(|f| within(f, scope)).cloned().collect();
        assert!(!named.is_empty(), "{scope}: no such file");
        match scope.starts_with('!') {
            true => found.retain(|f| !named.contains(f)),
            false => found.extend(named),
        }
    }
    found
}

fn within(file: &str, scope: &str) -> bool {
    let mut names = file.split('/');
    let mut matches = |s| names.next().is_some_and(|n| s == "*" || s == n);
    scope.trim_start_matches('!').split('/').all(&mut matches)
}

/// A function of `file` from the line that starts with `header` (its
/// indentation included) to the `}` at that indentation.
fn body(file: &str, header: &str) -> String {
    let text = source(file);
    let indent = &header[..header.len() - header.trim_start().len()];
    let close = format!("\n{indent}}}");
    let start = text.find(&format!("\n{header}"));
    let start = start.unwrap_or_else(|| panic!("{file}: no {header:?}"));
    let len = text[start..].find(&close);
    let len = len.unwrap_or_else(|| panic!("{file}: {header:?} has no {close:?}"));
    text[start..start + len].to_string()
}

fn starts(text: &[u8], needle: &[u8]) -> bool {
    let run = |class: fn(&u8) -> bool| text.iter().take_while(|&c| class(c)).count();
    let word = |c: &u8| c.is_ascii_alphanumeric() || b"_.".contains(c);
    match needle.split_first() {
        None => true,
        Some((b'@', rest)) => (0..=run(word)).any(|n| starts(&text[n..], rest)),
        Some((b'~', rest)) => (0..=run(|c| *c == b' ')).any(|n| starts(&text[n..], rest)),
        Some((c, rest)) => text.first() == Some(c) && starts(&text[1..], rest),
    }
}

/// The lines of `text` in which any of `needles` occurs, trimmed.
fn lines_with<'t>(text: &'t str, needles: &[&str]) -> Vec<&'t str> {
    let occurs = |l: &[u8], n: &str| (0..=l.len()).any(|at| starts(&l[at..], n.as_bytes()));
    let hit = |l: &&str| needles.iter().any(|n| occurs(l.as_bytes(), n));
    text.lines().filter(hit).map(str::trim).collect()
}

/// Every `(file, line)` of `scopes`, read through `read`, with a needle.
fn grep(scopes: &[&str], needles: &[&str], read: fn(&str) -> String) -> Vec<Hit> {
    let mut hits = Vec::new();
    for file in files(scopes) {
        for line in lines_with(&read(&file), needles) {
            hits.push((file.clone(), line.to_string()));
        }
    }
    hits
}

fn clean(hits: &[impl Debug]) {
    assert!(hits.is_empty(), "{hits:#?}");
}

fn none(scopes: &[&str], needles: &[&str]) {
    clean(&grep(scopes, needles, source));
}

/// How many hits there are, after asserting that all of them are in `file`.
fn only(hits: &[Hit], file: &str) -> usize {
    clean(&hits.iter().filter(|(f, _)| f != file).collect::<Vec<_>>());
    hits.len()
}

/// `DepGraph::derive` (bine-sched/src/deps.rs) alone works out what a send
/// waits for: a second latest-writer table is a second derivation. (An
/// argument list clippy must tolerate is forbidden by the manifest.)
#[test]
fn one_dependency_derivation() {
    let hits = grep(&["crates/*/src"], &["latest_write"], source);
    assert!(only(&hits, "crates/bine-sched/src/deps.rs") > 0);
}

/// `Topology::route` fills a caller's buffer; a signature that hands back a
/// fresh list is the per-message allocation coming back.
#[test]
fn one_route_form() {
    none(&["crates/*/src"], &["-> Vec<LinkId>"]);
}

/// `Contract` (bine-sched/src/contract.rs) alone states who starts and ends
/// with which blocks, whose data they are and whose input is irreplaceable:
/// its five readers do not match on the collective, the facade keeps no
/// per-algorithm block forms, and the validator applies in one loop.
#[test]
fn one_collective_contract() {
    let validate = "crates/bine-sched/src/validate.rs";
    let reduces = grep(&[validate], &["TransferKind::Reduce"], shipped);
    assert_eq!(only(&reduces, validate), 1);
    let readers = [
        validate,
        "crates/bine-exec/src/state.rs",
        "crates/bine-exec/src/verify.rs",
        "crates/bine-exec/src/comm.rs",
        "crates/bine-tune/src/service/recover.rs",
    ];
    none(&readers, &["Collective::@~=>", "Collective::@~|"]);
    none(&[readers[3]], &["|~@Alg::"]);
}

/// `build` / `ProviderSet` are total, so nothing probes buildability by
/// unwinding or silences panics wholesale (`chaos` filters its injected
/// ones by message); and `bine_tune::Scorer` alone turns a view into a
/// schedule or a schedule into a summary for the tuner, harness and sweeps.
#[test]
fn one_path_from_a_name_to_a_score() {
    let sweep = "crates/bine-bench/src/cmd/sweep.rs";
    let recover = "crates/bine-tune/src/service/recover.rs";
    let crash = "crates/bine-bench/src/crash.rs";
    none(&[recover, crash, sweep], &["catch_unwind"]);
    none(&["crates/bine-bench/src/cmd"], &["quiet_panics(|_| true)"]);
    let runner = "crates/bine-bench/src/runner.rs";
    let synthesizers = ["crates/bine-tune/src", runner, sweep];
    none(&synthesizers, &[".synthesize(", "synth_view("]);
    let summaries = ["crates/bine-tune/src/tuner.rs", "crates/bine-bench/src"];
    none(&summaries, &["CostSummary::of", "estimate_summary"]);
}

/// An algorithm is one `Row` of bine-sched/src/catalog.rs: no second enum
/// of v-variants; `is_linear` and `Row::builds_at` read the row (no name
/// literal, one "power of two"); the sweep and the suites iterate
/// `catalog::walk`, not `irregular_algorithms` / `synth_algorithms`.
#[test]
fn one_catalog_row() {
    // Spelled in two halves: this file is under `tests/`, which is scanned.
    let second_enum = concat!("Irregular", "Alg");
    none(&["crates", "src", "tests", "examples"], &[second_enum]);
    let catalog = "crates/bine-sched/src/catalog.rs";
    let rules = grep(&[catalog], &["is_power_of_two"], source);
    assert_eq!(only(&rules, catalog), 1);
    for header in ["pub fn is_linear(", "    pub fn builds_at("] {
        clean(&lines_with(&body(catalog, header), &["\""]));
    }
    let walkers = [
        "crates/*/tests",
        "!crates/*/tests/synth_proptests.rs",
        "!crates/*/tests/tuned_selection.rs",
        "crates/bine-bench/src/cmd/sweep.rs",
        "crates/bine-sched/src/compile.rs",
        "crates/bine-sched/src/validate.rs",
        "crates/bine-exec/src/compiled.rs",
        "crates/bine-exec/src/sequential.rs",
    ];
    none(&walkers, &["irregular_algorithms(", "synth_algorithms("]);
}

/// `compiled::run_dense` picks the walk from the input, not an environment
/// variable; `state::reduce_into` alone adds two payloads (`*a += b`,
/// `|(a, b)| a + b`); blocks enter dense form at the one `index_of(`, in
/// `state::slot_under`; `from_dense` rebuilds no map.
#[test]
fn one_reduction_kernel_one_rule_for_the_walk_one_rekeying() {
    let (exec, state) = (["crates/bine-exec/src"], "crates/bine-exec/src/state.rs");
    none(&exec, &["env::var"]);
    assert_eq!(only(&grep(&exec, &["*@ += ", "|~@ + @"], source), state), 2);
    assert_eq!(only(&grep(&exec, &["index_of("], source), state), 1);
    let from_dense = body("crates/bine-exec/src/compiled.rs", "pub fn from_dense(");
    clean(&lines_with(&from_dense, &[".insert(", ".reserve("]));
}

/// A run keeps its ranks' slots in one table, which its stores share: a
/// slot vector in `BlockStore` is a row per rank, one allocation per rank
/// and request, back. The walks index that table, so the one function of
/// compiled.rs that takes the ranks' states is the entry, `run_dense`.
#[test]
fn one_slot_table_per_run() {
    let state = "crates/bine-exec/src/state.rs";
    clean(&lines_with(
        &body(state, "pub struct BlockStore {"),
        &["Vec<u32>"],
    ));
    let compiled = "crates/bine-exec/src/compiled.rs";
    let takers = grep(&[compiled], &["states: &mut [DenseState]"], shipped);
    let entry = (
        compiled.to_string(),
        "pub fn run_dense(compiled: &CompiledSchedule, states: &mut [DenseState]) {".to_string(),
    );
    assert_eq!(takers, [entry]);
}

/// A run hands its buffers to the next on its thread through one spare,
/// bine-exec's one `thread_local!` (state.rs): a new table's slots and
/// payload list and a walk's staging come from it, so neither
/// `PayloadTable::new` nor compiled.rs's `walk` allocates one of its own —
/// which a benchmark that fixes glibc's mmap threshold faults in page by
/// page on every run.
#[test]
fn one_spare() {
    let exec = ["crates/bine-exec/src"];
    let spares = grep(&exec, &["thread_local!"], shipped);
    assert_eq!(only(&spares, "crates/bine-exec/src/state.rs"), 1);
    let takers = [
        ("crates/bine-exec/src/compiled.rs", "fn walk<'a>("),
        ("crates/bine-exec/src/state.rs", "    fn new(layout: &Arc"),
    ];
    for (file, header) in takers {
        let allocations = ["Vec::with_capacity(", "vec![", "thread_local!"];
        clean(&lines_with(&body(file, header), &allocations));
    }
}

/// A crash is decided by one analysis, the validator's survivor replay
/// (`ScheduleValidator::survivors`), which the DES, the executor and crash
/// recovery all read: the kernel's shipped code names no dead rank and no
/// stall, and the pool builds `ExecError::RankDead` in one place, from the
/// replay. (A match arm or the variant itself is not a build.)
#[test]
fn one_stall_analysis() {
    let kernel = ["crates/bine-exec/src/compiled.rs"];
    clean(&grep(&kernel, &["dead", "Stall"], shipped));
    let exec = ["crates/bine-exec/src"];
    let mut built = grep(&exec, &["RankDead {"], shipped);
    built.retain(|(_, line)| !line.contains("=>") && line != "RankDead {");
    assert_eq!(only(&built, "crates/bine-exec/src/pool.rs"), 1);
}

/// Where a run keeps its sums is decided once per handle, walk order and
/// entry, by `MemoryPlan::derive` — the one constructor of a `MemoryPlan` —
/// and a run lays them out in one arena: state.rs keeps no holder count,
/// free list or packing at run time, and the walks and the pool never
/// allocate a payload (no `Arc::new(`, `.to_vec()` or `Vec<f64>` in their
/// shipped code).
#[test]
fn one_memory_plan() {
    let walks = [
        "crates/bine-exec/src/compiled.rs",
        "crates/bine-exec/src/pool.rs",
    ];
    clean(&grep(
        &walks,
        &["Arc::new(", ".to_vec()", "Vec<f64>"],
        shipped,
    ));
    let state = ["crates/bine-exec/src/state.rs"];
    let allocator = [
        "holder",
        "free_",
        "Place",
        "Long",
        "PACK_MAX_ELEMS",
        "CHUNK_ELEMS",
    ];
    clean(&grep(&state, &allocator, shipped));
    let plan = "crates/bine-sched/src/plan.rs";
    // The contract's plan and a run's own plan, both by `derive`.
    let derived = grep(
        &["crates"],
        &["MemoryPlan::derive(", "Self::derive("],
        shipped,
    );
    let derived: Vec<_> = derived
        .iter()
        .map(|(f, l)| (f.as_str(), l.as_str()))
        .collect();
    assert_eq!(
        derived,
        [
            (
                "crates/bine-exec/src/state.rs",
                "let plan = MemoryPlan::derive(compiled, order, entry, units);"
            ),
            (plan, "Self::derive(compiled, order, entry, units)"),
        ]
    );
    // And nothing else builds one.
    let derive = body(plan, "    pub fn derive(");
    let plan_text = shipped(plan);
    let literal = |text: &str| lines_with(text, &["Self {"]).contains(&"Self {");
    let literals = lines_with(&plan_text, &["Self {"]);
    assert!(literal(&derive) && literals.iter().filter(|l| **l == "Self {").count() == 1);
}

/// `Contract::keeps` (bine-sched/src/contract.rs) alone states what a run
/// ends with: `required` reads it, the slot deaths and the interpreters end
/// at it, the plan's replay reads the deaths and a walked table reads
/// `SlotLayout::dies` — no second statement of which blocks a rank keeps.
#[test]
fn one_keep_rule() {
    let contract = "crates/bine-sched/src/contract.rs";
    let rule = grep(&["crates/*/src"], &["fn keeps("], shipped);
    assert_eq!(only(&rule, contract), 1);
    assert!(body(contract, "    pub fn required(").contains("self.keeps("));
    let readers = grep(
        &["crates/*/src", &format!("!{contract}")],
        &[".keeps("],
        shipped,
    );
    let mut readers: Vec<_> = readers.iter().map(|(f, _)| f.as_str()).collect();
    readers.sort_unstable();
    let (sequential, compile) = (
        "crates/bine-exec/src/sequential.rs",
        "crates/bine-sched/src/compile.rs",
    );
    assert_eq!(readers, [sequential, compile]);
    let (plan, compiled) = (
        "crates/bine-sched/src/plan.rs",
        "crates/bine-exec/src/compiled.rs",
    );
    assert!(body(plan, "    pub fn derive(").contains("deaths: &compiled.slots().deaths,"));
    assert!(body(plan, "    fn group(").contains("self.deaths.get("));
    let state = "crates/bine-exec/src/state.rs";
    assert!(body(state, "    fn held(").contains(".dies("));
    let walks = [plan, compiled, state];
    clean(&grep(&walks, &[".required(", ".keeps("], shipped));
}

/// Both orders skip a rank's copy onto itself by
/// `CompiledSchedule::is_identity_move`, which the walk alone asks (see
/// `one_walk`); a `src == dst` test in the kernel is a second rule they
/// could split on.
#[test]
fn one_identity_rule() {
    let compiled = "crates/bine-exec/src/compiled.rs";
    clean(&grep(&[compiled], &["src == @dst", "is_local()"], shipped));
    let compile = "crates/bine-sched/src/compile.rs";
    let rule = body(compile, "    fn is_identity_move(");
    assert_eq!(lines_with(&rule, &["src == @dst"]).len(), 1);
}

/// A run's groups — which payloads it gathers before it applies any, in
/// which order, skipping identity moves — are defined once, by
/// `CompiledSchedule::walk`, in both orders. The executor, the memory plan
/// (whose in-place sums are sound only if it replays the executor's exact
/// groups) and the staging bound read that walk: no shipped code of
/// bine-exec or plan.rs walks the compiled form itself, and in compile.rs
/// only the walk asks the identity rule or cuts a block's entries by step.
#[test]
fn one_walk() {
    let (compile, plan) = (
        "crates/bine-sched/src/compile.rs",
        "crates/bine-sched/src/plan.rs",
    );
    let rules = ["is_identity_move(", "chunk_by("];
    let walkers = [
        "step_recvs(",
        "entries_of(",
        "recvs_to(",
        "step_sends(",
        "sends_from(",
        "block_index_slice(",
    ];
    let readers = ["crates/bine-exec/src", plan];
    clean(&grep(&readers, &rules, shipped));
    clean(&grep(&readers, &walkers, shipped));
    let walk = body(compile, "    pub fn walk(");
    let asked = lines_with(&walk, &rules);
    assert_eq!(asked.len(), 2, "{asked:#?}");
    let shipped = shipped(compile);
    let mut everywhere = lines_with(&shipped, &rules);
    everywhere.retain(|line| !line.starts_with("fn is_identity_move("));
    assert_eq!(everywhere, asked);
}

/// A tree is one `bine_core::Tree` over a `TreeKind`, as a butterfly is one
/// `Butterfly` over a `ButterflyKind`: a tree trait, a boxed tree or a
/// second tree struct is a fifth `impl` of the same accessors, and the
/// builders ask the tree for the child joining at a step instead of
/// restating when a rank is active.
#[test]
fn one_tree_type() {
    // Spelled in two halves: this file is under `tests/`, which is scanned.
    let tree_trait = concat!("Comm", "Tree");
    none(&["crates", "src", "tests", "examples"], &[tree_trait]);
    none(&["crates"], &["dyn @Tree", "Box<@Tree>"]);
    let structs = grep(&["crates/bine-core/src"], &["struct @Tree"], source);
    let tree = "crates/bine-core/src/tree.rs".to_string();
    assert_eq!(structs, [(tree, "pub struct Tree {".to_string())]);
    let builders = "crates/bine-sched/src/collectives/builders.rs";
    none(&[builders], &["fn is_active"]);
}

/// `ExecutorPool` runs a request on the calling thread; a worker queue, a
/// thread spawn or a condition variable in bine-exec is a second path.
#[test]
fn one_lane() {
    let exec = ["crates/bine-exec/src"];
    clean(&grep(&exec, &["thread::", "Condvar", "VecDeque"], shipped));
}

/// The serving harnesses hammer the service through `bine_bench::storm`; a
/// barrier or a thread scope in a harness is a second storm beside it.
#[test]
fn one_storm() {
    let harnesses = [
        "crates/bine-bench/src/serve.rs",
        "crates/bine-bench/src/chaos.rs",
        "crates/bine-bench/src/crash.rs",
        "crates/bine-bench/src/adaptive.rs",
    ];
    none(&harnesses, &["Barrier::new", "thread::scope"]);
}

/// A pick is `SelectorIndex::choose` and a compiled handle comes from
/// `ServiceSelector`, whose shards own the one compiled-schedule cache: a
/// second front end with an `Lru` of its own is a second cache that must
/// be kept in step with the first.
#[test]
fn one_selector() {
    let cache = "crates/bine-tune/src/service/cache.rs";
    let hits = grep(&["crates/*/src"], &["Lru::new("], source);
    assert!(only(&hits, cache) > 0);
    none(&["crates/*/src"], &["pub struct Selector "]);
}

/// A block id is its own index, so compile.rs hashes nothing, and every
/// other map keyed by `BlockId` is a `BlockMap` under `BlockHasher` (its
/// definition is the one `HashMap<BlockId`), never the std SipHash.
#[test]
fn one_block_hasher() {
    let compile = ["crates/bine-sched/src/compile.rs"];
    none(&compile, &["BlockMap", "HashMap"]);
    let maps = grep(&["crates/*/src"], &["HashMap<BlockId"], source);
    let hasher = "BuildHasherDefault<BlockHasher>";
    let sip: Vec<_> = maps.iter().filter(|(_, m)| !m.contains(hasher)).collect();
    clean(&sip);
}

/// A cold miss is linear: lowering places sends and receives in one
/// counting pass (`csr_row` / `place`) and the butterfly allgather merges
/// holdings. A comparison sort in either body is the O(n log n) miss back.
#[test]
fn one_pass_to_lower() {
    let lower = "    pub(crate) fn compile(schedule";
    let compile = body("crates/bine-sched/src/compile.rs", lower);
    let builders = "crates/bine-sched/src/collectives/builders.rs";
    let allgather = body(builders, "pub fn butterfly_allgather(");
    clean(&lines_with(&compile, &["sort"]));
    clean(&lines_with(&allgather, &["sort"]));
}

/// A step holds its messages' blocks in one arena, the messages ranges of
/// it: a second `Vec<BlockId>` in the schedule model is a block list per
/// message, one allocation per message, back.
#[test]
fn one_block_arena() {
    let schedule = "crates/bine-sched/src/schedule.rs";
    let hits = grep(&[schedule], &["Vec<BlockId>"], shipped);
    let arena = (schedule.to_string(), "blocks: Vec<BlockId>,".to_string());
    assert_eq!(hits, [arena]);
}

/// Argument, panic-hook or exit-code handling outside bine-bench's `cli.rs`
/// and `main.rs` is a fork of the one front-end. (No second binary is the
/// manifest's `autobins = false`.)
#[test]
fn one_bine_bench_front_end() {
    let bench = [
        "crates/bine-bench/src",
        "!crates/bine-bench/src/cli.rs",
        "!crates/bine-bench/src/main.rs",
    ];
    none(&bench, &["env::args", "set_hook", "process::exit"]);
}

/// Every operation has one implementation and one name. sequential.rs
/// holds one interpreter, `run_reference`, the only walk of
/// `schedule.steps` there (`run` is a compile and a compiled run); a
/// `FaultPlan` builder returns its typed error instead of forwarding to a
/// twin and panicking on it; and the serving layer runs on
/// `ExecutorPool::global`, taking a pool only in `execute_on`, whose
/// parameter nothing reads.
#[test]
fn one_implementation_per_operation() {
    let sequential = "crates/bine-exec/src/sequential.rs";
    let walks = |text: &str| lines_with(text, &["schedule.steps"]).len();
    let reference = body(sequential, "pub fn run_reference(");
    assert_eq!((walks(&shipped(sequential)), walks(&reference)), (1, 1));
    none(&["crates/bine-exec/src"], &["get_shared"]);
    let fault = ["crates/bine-net/src/fault.rs"];
    let panics = ["panic!(", ".unwrap", ".expect(", "fn try_"];
    clean(&grep(&fault, &panics, shipped));
    let service = "crates/bine-tune/src/service/mod.rs";
    let pools = |text: &str| lines_with(text, &[": &ExecutorPool"]).len();
    let execute_on = body(service, "    pub fn execute_on(");
    assert_eq!((pools(&shipped(service)), pools(&execute_on)), (1, 1));
    none(&["crates/*/src"], &["try_execute_on"]);
}

/// A rule over a renamed or deleted file fails instead of passing.
#[test]
#[should_panic(expected = "crates/bine-bench/src/crash_renamed.rs")]
fn a_rule_over_a_missing_path_fails() {
    let renamed = "crates/bine-bench/src/crash_renamed.rs";
    none(&[renamed], &["thread::scope"]);
}

/// A function body whose header is not found fails instead of being empty.
#[test]
#[should_panic(expected = "pub fn no_such_function(")]
fn a_body_whose_header_is_absent_fails() {
    let compiled = "crates/bine-exec/src/compiled.rs";
    body(compiled, "pub fn no_such_function(");
}
