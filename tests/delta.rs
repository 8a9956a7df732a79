//! Integration gates for incremental index maintenance: the session-level
//! `apply_delta` / `compact_index` surface, the ce-harness delta-stream
//! differential matrix, the O(1)-page cost pins, and a crash-safety smoke
//! under injected I/O faults.

use contract_expand::prelude::*;

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("scc-delta-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Two 3-cycles bridged by one edge: components {0,1,2} and {3,4,5}.
fn two_triangles() -> Vec<(u32, u32)> {
    vec![(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]
}

/// A session over `two_triangles` with a condensation-bearing index built
/// at `path`.
fn session_with_index(path: &std::path::Path) -> SccSession {
    let cfg = IoConfig::new(4 << 10, 1 << 20);
    let mut session = SccSession::open(cfg, EnvOptions::pooled(&cfg))
        .unwrap()
        .source(GraphSource::in_memory(6, two_triangles()))
        .unwrap()
        .condensation(true);
    session.build_index(path).unwrap();
    session
}

#[test]
fn session_applies_deltas_and_compacts() {
    let dir = scratch_dir("session");
    let idx_path = dir.join("g.sccidx");
    let session = session_with_index(&idx_path);

    // Cycle-creating insert: 5 -> 0 closes {0,1,2} <-> {3,4,5}.
    let report = session
        .apply_delta(&DeltaBatch::new().add(5, 0))
        .unwrap();
    assert_eq!(report.generation, 1);
    assert_eq!(report.merges, 1);
    assert_eq!(report.merged_components, 2);
    assert_eq!(report.merged_nodes, 6);

    let mut eng = session.delta_engine().unwrap();
    assert_eq!(eng.n_sccs(), 1);
    assert!(eng.same_component(0, 5).unwrap());

    // Intra-component delete dirties; compact re-verifies. 2 -> 3 was the
    // only path from {0,1,2} into {3,4,5}, so removing it splits the
    // merged component back apart.
    let report = session
        .apply_delta(&DeltaBatch::new().remove(2, 3))
        .unwrap();
    assert_eq!(report.dirty_marked, 1);
    let compacted = session.compact_index().unwrap();
    assert_eq!(compacted.components_reverified, 1);
    assert_eq!(compacted.components_after, 2);

    let mut eng = session.delta_engine().unwrap();
    assert!(!eng.same_component(0, 5).unwrap());
    assert_eq!(eng.component_of(4).unwrap(), 3);
    assert_eq!(eng.n_dirty(), 0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn delta_without_index_or_dag_fails_cleanly() {
    let cfg = IoConfig::new(4 << 10, 1 << 20);

    // No index attached at all.
    let session = SccSession::open(cfg, EnvOptions::unpooled())
        .unwrap()
        .source(GraphSource::in_memory(6, two_triangles()))
        .unwrap();
    let err = session.apply_delta(&DeltaBatch::new().add(0, 3)).unwrap_err();
    assert!(err.to_string().contains("no index"), "{err}");

    // Index built without the condensation DAG section: the error names
    // the CLI flag that fixes it.
    let dir = scratch_dir("nodag");
    let mut session = SccSession::open(cfg, EnvOptions::unpooled())
        .unwrap()
        .source(GraphSource::in_memory(6, two_triangles()))
        .unwrap();
    session.build_index(&dir.join("plain.sccidx")).unwrap();
    let err = session.apply_delta(&DeltaBatch::new().add(0, 3)).unwrap_err();
    assert!(err.to_string().contains("--with-condensation"), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn differential_matrix_200_steps_across_three_families() {
    let rows = contract_expand::harness::run_delta_matrix(200, 0x9e37).unwrap();
    assert_eq!(rows.len(), 3, "three workload families");
    for row in &rows {
        assert!(row.ok(), "{row}");
        assert_eq!(row.steps, 200);
        assert!(row.adds > 0 && row.removes > 0, "{row}");
        // Sublinear maintenance: non-merge steps never rewrite the label
        // section (constant pages: journal + header + DAG/dirty).
        assert!(
            row.max_metadata_write_ios <= 8,
            "metadata step wrote {} pages: {row}",
            row.max_metadata_write_ios
        );
    }
    // The taxonomy is exercised: the streams performed real merges and
    // real dirty-marking deletions somewhere in the matrix.
    assert!(rows.iter().map(|r| r.merges).sum::<u64>() > 0);
    assert!(rows.iter().map(|r| r.dirty_marked).sum::<u64>() > 0);
}

#[test]
fn metadata_only_insert_cost_is_independent_of_graph_size() {
    // The same intra-component insert against a 12-node and a 6000-node
    // graph must cost the same page writes: the artifact sizes differ by
    // three orders of magnitude, the maintenance cost must not.
    let mut write_costs = Vec::new();
    for n in [12u64, 6000] {
        let dir = scratch_dir(&format!("o1-{n}"));
        let idx_path = dir.join("g.sccidx");
        let cfg = IoConfig::new(4 << 10, 1 << 20);
        // A triangle 0->1->2->0 plus n-3 isolated nodes.
        let mut session = SccSession::open(cfg, EnvOptions::pooled(&cfg))
            .unwrap()
            .source(GraphSource::in_memory(n, vec![(0, 1), (1, 2), (2, 0)]))
            .unwrap()
            .condensation(true);
        session.build_index(&idx_path).unwrap();
        let report = session
            .apply_delta(&DeltaBatch::new().add(0, 2))
            .unwrap();
        assert_eq!(report.intra_added, 1);
        assert_eq!(report.merges, 0);
        assert_eq!(report.label_pages_rewritten, 0);
        write_costs.push(report.ios.seq_writes + report.ios.rand_writes);
        std::fs::remove_dir_all(&dir).ok();
    }
    assert_eq!(
        write_costs[0], write_costs[1],
        "metadata-only insert cost grew with graph size: {write_costs:?}"
    );
}

#[test]
fn merge_rewrites_only_label_pages_owning_affected_nodes() {
    // 4096-byte pages hold 1024 labels. 3000 nodes -> 3 label pages; a
    // merge of two components living entirely in page 0 must rewrite
    // exactly one label page.
    let dir = scratch_dir("pages");
    let idx_path = dir.join("g.sccidx");
    let cfg = IoConfig::new(4 << 10, 1 << 20);
    let mut edges = vec![(0u32, 1u32), (1, 0), (2, 3), (3, 2), (1, 2)];
    // Anchor components on the later pages so the artifact genuinely has
    // multi-page label state that a correct merge must NOT touch.
    edges.extend([(2000, 2001), (2001, 2000), (2900, 2901), (2901, 2900)]);
    let mut session = SccSession::open(cfg, EnvOptions::pooled(&cfg))
        .unwrap()
        .source(GraphSource::in_memory(3000, edges))
        .unwrap()
        .condensation(true);
    session.build_index(&idx_path).unwrap();

    let report = session
        .apply_delta(&DeltaBatch::new().add(3, 0))
        .unwrap();
    assert_eq!(report.merges, 1);
    assert_eq!(
        report.label_pages_rewritten, 1,
        "only the page owning nodes 0..3 changes"
    );

    let mut eng = session.delta_engine().unwrap();
    assert!(eng.same_component(0, 3).unwrap());
    assert!(!eng.same_component(0, 2000).unwrap());
    assert_eq!(eng.component_of(2900).unwrap(), 2900);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fault_mid_apply_leaves_the_previous_generation_queryable() {
    // Crash-safety smoke: inject a physical-transfer fault at several
    // points inside a merging apply. Whenever the apply errors, the
    // artifact on disk must still open through full validation at the old
    // generation and answer queries; a retry on a fresh engine must
    // succeed and land the new generation.
    let dir = scratch_dir("fault");
    for k in [1u64, 2, 4, 8] {
        let idx_path = dir.join(format!("g{k}.sccidx"));
        let session = session_with_index(&idx_path);
        let env = session.env();

        env.inject_fault_after(k);
        let attempt = session.apply_delta(&DeltaBatch::new().add(5, 0));
        env.clear_fault();

        match attempt {
            Err(_) => {
                // Old generation intact and queryable.
                let mut eng = session.delta_engine().unwrap();
                assert_eq!(eng.generation(), 0, "fault point {k}");
                assert!(!eng.same_component(0, 5).unwrap());
                drop(eng);
                // Retry goes through.
                let report = session.apply_delta(&DeltaBatch::new().add(5, 0)).unwrap();
                assert_eq!(report.generation, 1);
            }
            Ok(report) => {
                assert_eq!(report.generation, 1, "fault point {k}");
            }
        }
        let mut eng = session.delta_engine().unwrap();
        assert!(eng.same_component(0, 5).unwrap(), "fault point {k}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A session over `edges` on `n` nodes with a condensation-bearing index
/// built at `path`.
fn session_over(
    n: u64,
    edges: Vec<(u32, u32)>,
    path: &std::path::Path,
    opts: EnvOptions,
) -> SccSession {
    let cfg = IoConfig::new(4 << 10, 1 << 20);
    let mut session = SccSession::open(cfg, opts)
        .unwrap()
        .source(GraphSource::in_memory(n, edges))
        .unwrap()
        .condensation(true);
    session.build_index(path).unwrap();
    session
}

/// `two_triangles` plus a third component {6,7}.
fn three_components() -> Vec<(u32, u32)> {
    let mut edges = two_triangles();
    edges.extend([(6, 7), (7, 6)]);
    edges
}

fn dlog_of(path: &std::path::Path) -> std::path::PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".dlog");
    name.into()
}

/// Everything a failed apply must leave as it was.
type EngineState = (Vec<CountedEdge>, Vec<NodeId>, Vec<NodeId>, u64);

fn engine_state(eng: &mut DeltaEngine<'_>) -> EngineState {
    (
        eng.condensation_edges(),
        eng.dirty_components(),
        eng.labels_snapshot().unwrap(),
        eng.generation(),
    )
}

#[test]
fn failed_apply_leaves_the_same_engine_unchanged_and_retryable() {
    let dir = scratch_dir("undo");

    // Case 1: the first insert merges {0,1,2} and {3,4,5}; the removal
    // after it names a cross edge that does not exist and is rejected.
    let path = dir.join("reject.sccidx");
    let session = session_over(8, three_components(), &path, EnvOptions::unpooled());
    let mut eng = session.delta_engine().unwrap();
    let before = engine_state(&mut eng);
    let bad = DeltaBatch::new().add(5, 0).remove(0, 6);
    let err = eng.apply(&bad).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    assert_eq!(
        engine_state(&mut eng),
        before,
        "the rejected merge was rolled back"
    );
    let rep = eng.apply(&DeltaBatch::new().add(5, 0)).unwrap();
    assert_eq!((rep.merges, rep.generation), (1, before.3 + 1));
    drop(eng);

    // Case 2: physical faults inside a non-merging and a merging apply,
    // retried on the *same* engine.
    let batches = [
        // Reinforces {0,1,2} -> {3,4,5} and marks {0,1,2} dirty.
        ("non-merging", DeltaBatch::new().add(0, 3).remove(0, 1)),
        ("merging", DeltaBatch::new().add(5, 0).add(0, 6)),
    ];
    for (kind, batch) in batches {
        let mut faulted = 0;
        for k in [1u64, 2, 4, 8] {
            let path = dir.join(format!("{kind}-{k}.sccidx"));
            let session = session_over(8, three_components(), &path, EnvOptions::unpooled());
            let env = session.env();
            let mut eng = session.delta_engine().unwrap();
            let before = engine_state(&mut eng);
            env.inject_fault_after(k);
            let res = eng.apply(&batch);
            env.clear_fault();
            if res.is_err() {
                faulted += 1;
                assert_eq!(engine_state(&mut eng), before, "{kind} fault at {k}");
                let idx = SccIndex::open(env, &path).unwrap();
                assert_eq!(
                    idx.generation(),
                    before.3,
                    "{kind} fault at {k}: disk moved"
                );
            }
            let rep = eng.apply(&batch).unwrap();
            assert_eq!(rep.generation, before.3 + 1, "{kind} fault at {k}");
            drop(eng);
            let mut fresh = session.delta_engine().unwrap();
            assert_eq!(fresh.generation(), before.3 + 1);
            assert_eq!(fresh.same_component(0, 5).unwrap(), kind == "merging");
        }
        assert!(
            faulted >= 2,
            "{kind}: the sweep must hit mid-apply faults ({faulted})"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_log_tail_reopens_at_the_previous_generation_everywhere() {
    let dir = scratch_dir("torn");
    let path = dir.join("g.sccidx");
    let log = dlog_of(&path);
    let session = session_over(8, three_components(), &path, EnvOptions::unpooled());
    let env = session.env();
    {
        let mut eng = session.delta_engine().unwrap();
        eng.apply(&DeltaBatch::new().add(0, 3)).unwrap();
    }
    let len1 = std::fs::metadata(&log).unwrap().len();
    {
        let mut eng = session.delta_engine().unwrap();
        eng.apply(&DeltaBatch::new().add(1, 6)).unwrap();
    }
    let full = std::fs::read(&log).unwrap();
    assert!(full.len() as u64 > len1 + 64);
    for cut in [
        len1 + 1,
        len1 + 40,
        (len1 + full.len() as u64) / 2,
        full.len() as u64 - 1,
    ] {
        std::fs::write(&log, &full[..cut as usize]).unwrap();
        assert_eq!(
            SccIndex::open(env, &path).unwrap().generation(),
            1,
            "cut at {cut}"
        );
        let reader = SccIndex::open_shared(&path, 8).unwrap();
        assert_eq!(reader.generation(), 1, "cut at {cut}");
        let edges: Vec<Edge> = reader.condensation_edges().map(|e| e.unwrap()).collect();
        assert_eq!(
            edges,
            vec![Edge::new(0, 3)],
            "cut at {cut}: generation 2 added 0 -> 6"
        );
        let eng = session.delta_engine().unwrap();
        assert_eq!(eng.generation(), 1, "cut at {cut}");
        assert_eq!(eng.condensation_edges(), vec![CountedEdge::new(0, 3, 2)]);
        drop(eng);
        // The engine's open cut the torn tail off.
        assert_eq!(std::fs::metadata(&log).unwrap().len(), len1, "cut at {cut}");
    }
    // The log keeps working from the cut: the lost commit is redone.
    let rep = session.apply_delta(&DeltaBatch::new().add(1, 6)).unwrap();
    assert_eq!(rep.generation, 2);
    assert_eq!(
        std::fs::read(&log).unwrap(),
        full,
        "same commit, same record"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_bad_record_before_valid_records_is_rejected_as_corruption() {
    let dir = scratch_dir("badrec");
    let path = dir.join("g.sccidx");
    let log = dlog_of(&path);
    let session = session_over(8, three_components(), &path, EnvOptions::unpooled());
    let env = session.env();
    let mut ends = Vec::new();
    {
        let mut eng = session.delta_engine().unwrap();
        for batch in [
            DeltaBatch::new().add(0, 3),
            DeltaBatch::new().add(1, 6),
            DeltaBatch::new().remove(3, 4),
        ] {
            eng.apply(&batch).unwrap();
            ends.push(std::fs::metadata(&log).unwrap().len() as usize);
        }
    }
    let pristine = std::fs::read(&log).unwrap();
    // One flipped byte in the middle record, then in the last one.
    let mut bytes = pristine.clone();
    bytes[(ends[0] + ends[1]) / 2] ^= 0x40;
    std::fs::write(&log, &bytes).unwrap();
    let err = SccIndex::open(env, &path).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    let err = SccIndex::open_shared(&path, 8).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    let err = session.delta_engine().unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");

    let mut bytes = pristine.clone();
    bytes[(ends[1] + ends[2]) / 2] ^= 0x40;
    std::fs::write(&log, &bytes).unwrap();
    assert_eq!(
        SccIndex::open(env, &path).unwrap().generation(),
        2,
        "a bad last record is a torn tail"
    );

    std::fs::write(&log, &pristine).unwrap();
    let idx = SccIndex::open(env, &path).unwrap();
    assert_eq!((idx.generation(), idx.n_dirty()), (3, 1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_fold_interrupted_between_its_renames_ignores_the_stale_log() {
    let dir = scratch_dir("fold");
    let path = dir.join("g.sccidx");
    let log = dlog_of(&path);
    let mut waiting = log.clone().into_os_string();
    waiting.push(".tmp");
    let waiting = std::path::PathBuf::from(waiting);
    let session = session_over(8, three_components(), &path, EnvOptions::unpooled());
    let env = session.env();

    // Generation 1 is a log record; generation 2 merges, so it folds: a
    // new artifact and a new log holding only the journal.
    session.apply_delta(&DeltaBatch::new().add(1, 6)).unwrap();
    let old_log = std::fs::read(&log).unwrap();
    let rep = session.apply_delta(&DeltaBatch::new().add(5, 0)).unwrap();
    assert_eq!((rep.generation, rep.merges), (2, 1));
    let new_log = std::fs::read(&log).unwrap();
    assert_ne!(new_log, old_log);

    // The crash: the artifact was renamed, the new log was not.
    std::fs::rename(&log, &waiting).unwrap();
    std::fs::write(&log, &old_log).unwrap();
    let mut idx = SccIndex::open(env, &path).unwrap();
    assert_eq!(idx.generation(), 2);
    assert!(idx.same_component(0, 5).unwrap());
    let reader = SccIndex::open_shared(&path, 8).unwrap();
    assert_eq!(reader.generation(), 2);
    assert!(reader.same_component(1, 4).unwrap());

    // The writer's open rolls the fold forward and keeps the journal.
    let mut eng = session.delta_engine().unwrap();
    assert_eq!((eng.generation(), eng.n_journal()), (2, 2));
    assert!(!waiting.exists());
    assert_eq!(std::fs::read(&log).unwrap(), new_log);
    // Removing 2 -> 3 needs the journal: {0..5} splits back apart.
    eng.apply(&DeltaBatch::new().remove(2, 3)).unwrap();
    assert_eq!(eng.labels_snapshot().unwrap(), vec![0, 0, 0, 3, 3, 3, 6, 6]);
    drop(eng);

    // A leftover that does not chain to the artifact is discarded.
    std::fs::write(&waiting, b"not a log").unwrap();
    let eng = session.delta_engine().unwrap();
    assert!(!waiting.exists());
    assert_eq!(eng.generation(), 4, "the split was compacted");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metadata_only_insert_leaves_the_artifact_and_grows_the_log_alike() {
    // The physical twin of the logical pin above: the artifact keeps its
    // inode and bytes, and the log grows by the same bytes at any size.
    use std::os::unix::fs::MetadataExt;
    let mut growth = Vec::new();
    for n in [12u64, 6000] {
        let dir = scratch_dir(&format!("phys-{n}"));
        let path = dir.join("g.sccidx");
        let session = session_over(
            n,
            vec![(0, 1), (1, 2), (2, 0)],
            &path,
            EnvOptions::pooled(&IoConfig::new(4 << 10, 1 << 20)),
        );
        let ino = std::fs::metadata(&path).unwrap().ino();
        let bytes = std::fs::read(&path).unwrap();
        let eng = session.delta_engine().unwrap();
        drop(eng);
        let log0 = std::fs::metadata(dlog_of(&path)).unwrap().len();
        let report = session.apply_delta(&DeltaBatch::new().add(0, 2)).unwrap();
        assert_eq!((report.intra_added, report.generation), (1, 1));
        assert_eq!(std::fs::metadata(&path).unwrap().ino(), ino, "n = {n}");
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "n = {n}");
        growth.push(std::fs::metadata(dlog_of(&path)).unwrap().len() - log0);
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(growth[0] > 0);
    assert_eq!(
        growth[0], growth[1],
        "log growth depends on the graph: {growth:?}"
    );
}
