//! Incremental SCC index maintenance — the delta engine.
//!
//! The batch pipeline computes a partition once; this module keeps a stored
//! [`SccIndex`] **current under edge insertions and deletions** without
//! recomputing it, following the standard dynamic-SCC playbook (maintain
//! the condensation, localize work to the part of the DAG an update can
//! actually affect):
//!
//! * **Insert `(u, v)`, same component** — the partition cannot change
//!   (the edge lands inside an existing SCC). Metadata-only: the edge is
//!   journaled and nothing else moves.
//! * **Insert `(u, v)`, cross-component, DAG-order-respecting** — if the
//!   condensation already has `comp(u) → comp(v)`, its multiplicity is
//!   reinforced in place; if the DAG has no path `comp(v) ⇝ comp(u)`, the
//!   edge cannot close a cycle (any node-level path `v ⇝ u` would project
//!   onto a component-level path), so a new condensation edge is appended.
//!   Either way: `O(1)` page writes.
//! * **Insert `(u, v)`, cycle-creating** — the affected region is exactly
//!   the components on some DAG path `comp(v) ⇝ comp(u)` (computed as the
//!   backward cone of `comp(u)` intersected with a forward walk from
//!   `comp(v)` bounded to that cone; both walks mark visits in one reusable
//!   stamp array). The in-memory SCC kernel
//!   ([`crate::tarjan::tarjan_scc`]) re-runs on that small condensation
//!   subgraph plus the new edge. Each merged group takes its minimum member
//!   as representative; only the *absorbed* members' condensation edges
//!   move onto it, so merging into a hub costs the absorbed members'
//!   degree, not the hub's. The new generation writes **only** the label
//!   pages owning absorbed nodes, the size-table pages of the changed
//!   representatives, and the DAG pages of the records that changed: the
//!   absorbed members' records become `count == 0` tombstones in place,
//!   and a moved edge reinforces its existing record or is appended.
//! * **Delete `(u, v)`, cross-component** — deleting an edge that lies in
//!   no SCC can never split or merge one; the condensation multiplicity is
//!   weakened (tombstoned at zero), `O(1)` page writes. A deletion with no
//!   supporting condensation edge is rejected — the edge is not in the
//!   current graph.
//! * **Delete `(u, v)`, same component** — may split the component, but
//!   deciding requires its induced subgraph, so the work is deferred: the
//!   component is marked **dirty** and its labels become a conservative
//!   *coarsening* of the true partition. The first query that touches a
//!   dirty component (or an explicit [`DeltaEngine::compact`]) re-runs the
//!   kernel on the component's induced subgraph — reconstructed from the
//!   base edge file plus the journal — and rewrites exactly the affected
//!   labels/sizes/DAG records (the whole DAG section instead when the
//!   patch would leave tombstones, which that rewrite reclaims).
//!
//! ## The coarsening invariant
//!
//! Between re-verifications the stored labels always **coarsen** the true
//! SCC partition of the current graph (base edges ⊎ journal): every true
//! SCC lies wholly inside one stored component, and components not marked
//! dirty are exact. Each operation preserves it: merges only coarsen
//! further (and the merged component is exact when every affected
//! component was clean — component-level paths lift to node-level paths
//! through exact components); cross-edge deletions touch no SCC;
//! intra-edge deletions mark their component dirty; and re-verification of
//! a dirty component is exact because any cycle of the induced subgraph is
//! a cycle of the full graph, so no true SCC crosses a component boundary.
//! This is also why lazy per-component re-verification is sound without
//! looking at any *other* dirty component.
//!
//! ## Crash safety and generations
//!
//! Every update commits a new **generation** `g + 1`, and there are two
//! ways to commit one:
//!
//! * **Log append** — for a commit that merges no components (intra-
//!   component and DAG-order-respecting inserts, cross-component removals,
//!   dirty marks). The engine appends one checksummed record to the
//!   `<artifact>.dlog` sidecar and fsyncs it once; the artifact file is not
//!   touched. The record holds the batch's journal operations, the
//!   after-images of the DAG and dirty pages the commit changed, and the
//!   new header (format: [`crate::dlog`]). **The record's fsync is the
//!   commit point.** Every open replays the log's valid prefix over the
//!   artifact and validates the result against the last record's header,
//!   so owned and shared handles see the same generation. A record cut
//!   short by a crash (a *torn tail*) is ignored on replay, leaving the
//!   previous generation; a bad record with complete records after it is
//!   corruption and fails the open with `InvalidData`.
//! * **Fold** — for merges, re-verification, [`DeltaEngine::compact`], and
//!   any commit made once the log's commit records hold more bytes than
//!   the artifact. The engine forks the artifact with an OS-level copy,
//!   lays the log's page images over the fork (uncounted, like the copy: a
//!   clone of the current generation outside the I/O model), patches the
//!   touched pages of the **fork** through the counted pager (for a merge,
//!   only the label, size and DAG pages the merge changed, never a whole
//!   section; only `compact` rewrites the DAG section, to reclaim
//!   tombstones), writes the new header last, fsyncs, and atomically
//!   renames it over the path — the commit point. It then writes a new log
//!   holding one checkpoint record (the whole journal, no page images)
//!   under a temporary name and renames it over the old log. A crash between the two renames leaves a
//!   log that no longer chains to the artifact: readers ignore it, and the
//!   next [`DeltaEngine::open`] moves the finished new log into place.
//!   Label and size-table pages are only ever rewritten by a fold, so the
//!   query path never consults the log.
//!
//! Concurrent [`SccIndexReader`](crate::index::SccIndexReader)s keep the
//! generation they opened: a fold's rename leaves them on the old inode,
//! and a log append is invisible to a reader that has already replayed.
//! The engine itself stays consistent too: [`DeltaEngine::apply`] works on
//! the live condensation DAG and dirty set under an undo log, rolled back
//! on any error, and installs the new header, page images and journal only
//! once the commit point has passed — so a failed `apply` leaves the same
//! engine unchanged and can simply be retried.
//!
//! Logical I/O is priced end to end in the environment's
//! [`IoStats`](ce_extmem::IoStats): classification pays the index point
//! reads, a metadata-only update pays the page reads it patches plus one
//! record write, a merge pays a sequential label scan and one size read per
//! merged component plus writes to only the affected pages, and the whole
//! apply is wrapped in `delta_classify` / `delta_merge` (re-verification in
//! `delta_compact`) spans for the tracing sinks.
//!
//! The node universe is fixed at build time (`0..n_nodes`); deltas mutate
//! edges, not nodes. The journal records node-level operations, so the
//! current edge multiset is always `base ⊎ journal` — deletions remove one
//! instance of a multi-edge at a time.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use ce_extmem::file::CountedFile;
use ce_extmem::{DiskEnv, IoSnapshot};

use crate::csr::CsrGraph;
use crate::dlog::{self, Overlay, KIND_CHECKPOINT, KIND_COMMIT};
use crate::edgelist::EdgeListGraph;
use crate::index::{
    align_up, bad, journal_path, lookup_rep, lookup_size, page_hash, page_hashes, read_exact_at,
    read_size, Fnv, Header, IndexIo, OverlayIo, SccIndex, DAG_ENTRY, DIRTY_ENTRY, JOURNAL_ENTRY,
    SIZE_ENTRY,
};
use crate::tarjan::tarjan_scc;
use crate::types::{CountedEdge, Edge, NodeId};

/// One batch of edge mutations: insertions are applied in order, then
/// deletions in order. Edges form a multiset — inserting `(u, v)` twice
/// yields two instances, and one deletion removes one instance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaBatch {
    /// Edges to insert, applied first, in order.
    pub edges_added: Vec<(NodeId, NodeId)>,
    /// Edges to delete, applied after all insertions, in order.
    pub edges_removed: Vec<(NodeId, NodeId)>,
}

impl DeltaBatch {
    /// An empty batch.
    pub fn new() -> DeltaBatch {
        DeltaBatch::default()
    }

    /// Builder: queue an insertion.
    pub fn add(mut self, u: NodeId, v: NodeId) -> DeltaBatch {
        self.edges_added.push((u, v));
        self
    }

    /// Builder: queue a deletion.
    pub fn remove(mut self, u: NodeId, v: NodeId) -> DeltaBatch {
        self.edges_removed.push((u, v));
        self
    }

    /// True when the batch holds no operations.
    pub fn is_empty(&self) -> bool {
        self.edges_added.is_empty() && self.edges_removed.is_empty()
    }

    /// Number of operations in the batch.
    pub fn len(&self) -> usize {
        self.edges_added.len() + self.edges_removed.len()
    }
}

/// What one [`DeltaEngine::apply`] did, with its exact logical I/O cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaReport {
    /// Index generation after the apply (unchanged for an empty batch).
    pub generation: u64,
    /// Insertions that landed inside an existing component (journal-only).
    pub intra_added: u64,
    /// Insertions that appended a new condensation edge.
    pub dag_appended: u64,
    /// Insertions that reinforced an existing condensation edge's count.
    pub dag_reinforced: u64,
    /// Cycle-creating insertions (each merged ≥ 2 components).
    pub merges: u64,
    /// Total components absorbed into merge groups (group members).
    pub merged_components: u64,
    /// Total nodes in all merged components.
    pub merged_nodes: u64,
    /// Components newly marked dirty by intra-component deletions.
    pub dirty_marked: u64,
    /// Deletions that decremented a condensation edge's count (still > 0).
    pub dag_weakened: u64,
    /// Deletions that dropped a condensation edge to a tombstone.
    pub dag_dropped: u64,
    /// Label pages rewritten (only pages owning affected nodes).
    pub label_pages_rewritten: u64,
    /// Logical I/O of the whole apply (classification + materialization).
    pub ios: IoSnapshot,
}

/// What one re-verification ([`DeltaEngine::compact`] or a lazy query
/// trigger) did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Index generation after the compact (unchanged if nothing was dirty).
    pub generation: u64,
    /// Dirty components re-verified.
    pub components_reverified: u64,
    /// Components those produced (≥ the number re-verified; larger means
    /// deletions had genuinely split components).
    pub components_after: u64,
    /// Nodes whose stored label changed.
    pub relabeled_nodes: u64,
    /// Tombstoned condensation-DAG slots reclaimed (records whose count
    /// had dropped to zero; the rewrite leaves only live edges on disk).
    pub dag_slots_reclaimed: u64,
    /// Logical I/O of the whole compact.
    pub ios: IoSnapshot,
}

/// In-memory adjacency over the stored condensation DAG: multiplicity per
/// component edge plus forward/backward neighbor sets for the reachability
/// walks. Loaded once at [`DeltaEngine::open`] and maintained across
/// applies — the semi-external stance of the workspace (node-proportional
/// state in memory, edge files on disk) applied to the condensation, which
/// is the *small* quotient of the graph.
///
/// While a transaction is open every change records the multiplicity it
/// replaced, so [`DagAdj::rollback`] restores the adjacency exactly (the
/// neighbor sets are a function of the multiplicities), and the distinct
/// keys of that undo log are the transaction's write set
/// ([`DagAdj::changes`]).
#[derive(Debug)]
pub(crate) struct DagAdj {
    counts: BTreeMap<(NodeId, NodeId), u32>,
    fwd: HashMap<NodeId, BTreeSet<NodeId>>,
    bwd: HashMap<NodeId, BTreeSet<NodeId>>,
    undo: Option<Vec<((NodeId, NodeId), u32)>>,
    /// Visit stamps of the reachability walks, one per node id: a walk
    /// takes fresh epochs and marks a component visited by writing one into
    /// its slot, so no walk allocates or clears a visited set.
    stamp: Vec<u32>,
    /// The largest epoch handed out; every stamp is at most this.
    epoch: u32,
}

impl DagAdj {
    /// An empty adjacency over component ids `0..n_nodes`.
    fn new(n_nodes: u64) -> DagAdj {
        DagAdj {
            counts: BTreeMap::new(),
            fwd: HashMap::new(),
            bwd: HashMap::new(),
            undo: None,
            stamp: vec![0; n_nodes as usize],
            epoch: 0,
        }
    }

    fn count(&self, s: NodeId, d: NodeId) -> u32 {
        self.counts.get(&(s, d)).copied().unwrap_or(0)
    }

    fn record(&mut self, s: NodeId, d: NodeId) {
        let old = self.count(s, d);
        if let Some(undo) = self.undo.as_mut() {
            undo.push(((s, d), old));
        }
    }

    /// Adds `c` instances of `s → d` (saturating).
    fn add(&mut self, s: NodeId, d: NodeId, c: u32) {
        debug_assert_ne!(s, d, "condensation edges are never loops");
        self.record(s, d);
        let e = self.counts.entry((s, d)).or_insert(0);
        *e = e.saturating_add(c);
        self.fwd.entry(s).or_default().insert(d);
        self.bwd.entry(d).or_default().insert(s);
    }

    /// Sets the multiplicity of `s → d`; zero removes the edge.
    fn set(&mut self, s: NodeId, d: NodeId, c: u32) {
        self.record(s, d);
        if c == 0 {
            self.counts.remove(&(s, d));
            if let Some(n) = self.fwd.get_mut(&s) {
                n.remove(&d);
                if n.is_empty() {
                    self.fwd.remove(&s);
                }
            }
            if let Some(n) = self.bwd.get_mut(&d) {
                n.remove(&s);
                if n.is_empty() {
                    self.bwd.remove(&d);
                }
            }
        } else {
            self.counts.insert((s, d), c);
            self.fwd.entry(s).or_default().insert(d);
            self.bwd.entry(d).or_default().insert(s);
        }
    }

    fn begin(&mut self) {
        debug_assert!(self.undo.is_none(), "transactions do not nest");
        self.undo = Some(Vec::new());
    }

    fn commit(&mut self) {
        self.undo = None;
    }

    /// Undoes every change since [`DagAdj::begin`], newest first.
    fn rollback(&mut self) {
        for ((s, d), c) in self.undo.take().unwrap_or_default().into_iter().rev() {
            self.set(s, d, c);
        }
    }

    /// The open transaction's write set: every key whose multiplicity
    /// differs from the one it had at [`DagAdj::begin`] — the stored one —
    /// with its multiplicity now, in key order. Empty outside a transaction.
    fn changes(&self) -> Vec<((NodeId, NodeId), u32)> {
        let mut before: BTreeMap<(NodeId, NodeId), u32> = BTreeMap::new();
        for &(k, old) in self.undo.iter().flatten() {
            before.entry(k).or_insert(old);
        }
        before
            .into_iter()
            .map(|(k, old)| (k, old, self.count(k.0, k.1)))
            .filter(|&(_, old, now)| old != now)
            .map(|(k, _, now)| (k, now))
            .collect()
    }

    /// Two fresh walk epochs, both above every stamp in the array (the
    /// numbering restarts on a cleared array before it would wrap).
    fn fresh_epochs(&mut self) -> (u32, u32) {
        if self.epoch > u32::MAX - 2 {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 2;
        (self.epoch - 1, self.epoch)
    }

    /// Is there a DAG path `from ⇝ to`? (`true` for `from == to`.)
    fn reaches(&mut self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            return true;
        }
        let (seen, _) = self.fresh_epochs();
        self.stamp[from as usize] = seen;
        let mut work = vec![from];
        while let Some(x) = work.pop() {
            if let Some(nbrs) = self.fwd.get(&x) {
                for &y in nbrs {
                    if y == to {
                        return true;
                    }
                    if self.stamp[y as usize] != seen {
                        self.stamp[y as usize] = seen;
                        work.push(y);
                    }
                }
            }
        }
        false
    }

    /// The components on some DAG path `from ⇝ to` (both included when the
    /// path exists), ascending: the backward cone of `to` is stamped
    /// `cone`, then a forward walk from `from` enters only cone members,
    /// restamping each `path` as it is visited.
    fn between(&mut self, from: NodeId, to: NodeId) -> Vec<NodeId> {
        let (cone, path) = self.fresh_epochs();
        self.stamp[to as usize] = cone;
        let mut work = vec![to];
        while let Some(x) = work.pop() {
            if let Some(nbrs) = self.bwd.get(&x) {
                for &y in nbrs {
                    if self.stamp[y as usize] != cone {
                        self.stamp[y as usize] = cone;
                        work.push(y);
                    }
                }
            }
        }
        self.stamp[from as usize] = path;
        let mut out = vec![from];
        work.push(from);
        while let Some(x) = work.pop() {
            if let Some(nbrs) = self.fwd.get(&x) {
                for &y in nbrs {
                    if self.stamp[y as usize] == cone {
                        self.stamp[y as usize] = path;
                        out.push(y);
                        work.push(y);
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Maps every member of `group` to `l`: moves each absorbed member's
    /// edges onto `l`, dropping those that become loops (they turned
    /// intra-component) and combining multiplicities. `l`'s own edges to
    /// and from components outside the group do not change and are not
    /// touched, so absorbing into a hub costs the absorbed members' degree,
    /// not the hub's.
    fn remap(&mut self, group: &HashSet<NodeId>, l: NodeId) {
        let mut moved: Vec<(NodeId, NodeId, u32)> = Vec::new();
        for &g in group {
            if g == l {
                continue;
            }
            for &d in self.fwd.get(&g).into_iter().flatten() {
                moved.push((g, d, self.count(g, d)));
            }
            // Sources inside the group other than `l` move with their own
            // forward edges above.
            for &s in self.bwd.get(&g).into_iter().flatten() {
                if s == l || !group.contains(&s) {
                    moved.push((s, g, self.count(s, g)));
                }
            }
        }
        for &(s, d, _) in &moved {
            self.set(s, d, 0);
        }
        for (s, d, c) in moved {
            let s = if group.contains(&s) { l } else { s };
            let d = if group.contains(&d) { l } else { d };
            if s != d {
                self.add(s, d, c);
            }
        }
    }

    /// Drops every edge with an endpoint in `set`.
    fn drop_touching(&mut self, set: &BTreeSet<NodeId>) {
        let mut doomed: Vec<(NodeId, NodeId)> = Vec::new();
        for &r in set {
            for d in self.fwd.get(&r).cloned().unwrap_or_default() {
                doomed.push((r, d));
            }
            for s in self.bwd.get(&r).cloned().unwrap_or_default() {
                doomed.push((s, r));
            }
        }
        for (s, d) in doomed {
            self.set(s, d, 0);
        }
    }

    /// Live edges in `(src, dst)` order — the canonical rewrite form.
    fn live_sorted(&self) -> Vec<CountedEdge> {
        self.counts
            .iter()
            .map(|(&(s, d), &c)| CountedEdge::new(s, d, c))
            .collect()
    }
}

/// The dirty components, with the same transaction discipline as
/// [`DagAdj`]: `(rep, was present)` per change while a transaction is open.
#[derive(Debug, Default)]
struct DirtySet {
    set: BTreeSet<NodeId>,
    undo: Option<Vec<(NodeId, bool)>>,
}

impl DirtySet {
    fn contains(&self, r: &NodeId) -> bool {
        self.set.contains(r)
    }

    fn insert(&mut self, r: NodeId) -> bool {
        let added = self.set.insert(r);
        if let (true, Some(undo)) = (added, self.undo.as_mut()) {
            undo.push((r, false));
        }
        added
    }

    fn remove(&mut self, r: &NodeId) -> bool {
        let removed = self.set.remove(r);
        if let (true, Some(undo)) = (removed, self.undo.as_mut()) {
            undo.push((*r, true));
        }
        removed
    }

    fn begin(&mut self) {
        debug_assert!(self.undo.is_none(), "transactions do not nest");
        self.undo = Some(Vec::new());
    }

    fn commit(&mut self) {
        self.undo = None;
    }

    fn rollback(&mut self) {
        for (r, was) in self.undo.take().unwrap_or_default().into_iter().rev() {
            if was {
                self.set.insert(r);
            } else {
                self.set.remove(&r);
            }
        }
    }

    /// Did the open transaction change the set? (A change undone within
    /// the same transaction still counts: the section is then rewritten
    /// with the same bytes.)
    fn changed(&self) -> bool {
        self.undo.as_ref().is_some_and(|u| !u.is_empty())
    }
}

/// Per-batch union-find over component representatives: merges decided
/// earlier in a batch must be visible to the classification of later edges
/// in the same batch, before anything is materialized.
#[derive(Default)]
struct UnionFind {
    parent: HashMap<NodeId, NodeId>,
}

impl UnionFind {
    fn find(&mut self, x: NodeId) -> NodeId {
        let mut root = x;
        while let Some(&p) = self.parent.get(&root) {
            root = p;
        }
        // Path compression.
        let mut cur = x;
        while cur != root {
            let next = self.parent[&cur];
            self.parent.insert(cur, root);
            cur = next;
        }
        root
    }

    fn merge_into(&mut self, absorbed: NodeId, l: NodeId) {
        if absorbed != l {
            self.parent.insert(absorbed, l);
        }
    }

    /// Final `old representative → merged representative` map.
    fn relabel_map(&mut self) -> HashMap<NodeId, NodeId> {
        let keys: Vec<NodeId> = self.parent.keys().copied().collect();
        keys.into_iter()
            .filter_map(|k| {
                let root = self.find(k);
                (root != k).then_some((k, root))
            })
            .collect()
    }
}

/// How the labels section changes in one materialization.
enum LabelPatch {
    /// No label changes.
    None,
    /// Merge: every stored label equal to a key maps to its value.
    ByRep(HashMap<NodeId, NodeId>),
    /// Re-verification: listed nodes get new labels.
    ByNode(HashMap<NodeId, NodeId>),
}

/// How the size table changes when components merge or split.
struct SizePatch {
    /// Number of components afterwards.
    n_sccs: u64,
    /// `rep → size` for every entry that changes; 0 for a representative
    /// whose component was absorbed or split away.
    entries: BTreeMap<NodeId, u64>,
}

/// A fully classified, not-yet-written update: everything `materialize`
/// needs besides the live DAG and dirty set, which already hold the new
/// state under the open transaction. The DAG records to write are that
/// transaction's write set ([`DagAdj::changes`]) unless `rewrite_dag`.
struct Plan {
    /// Journal operations of the batch, `JOURNAL_ENTRY` bytes each.
    journal: Vec<u8>,
    label_patch: LabelPatch,
    sizes: Option<SizePatch>,
    /// Rewrite the whole DAG section from the live `DagAdj`, reclaiming
    /// every tombstoned slot.
    rewrite_dag: bool,
    /// Dirty-set content changed (the section may still move with the DAG).
    dirty_changed: bool,
}

impl Plan {
    fn new() -> Plan {
        Plan {
            journal: Vec::new(),
            label_patch: LabelPatch::None,
            sizes: None,
            rewrite_dag: false,
            dirty_changed: false,
        }
    }

    /// Can this plan commit as a log record? Only if it rewrites no label,
    /// size or whole-DAG pages.
    fn appendable(&self) -> bool {
        matches!(self.label_patch, LabelPatch::None) && self.sizes.is_none() && !self.rewrite_dag
    }
}

/// Generation `g + 1` as page images over generation `g`: every page whose
/// bytes change (absolute offsets) and the new header.
struct Staged {
    hdr: Header,
    pages: BTreeMap<u64, Vec<u8>>,
    /// Label pages among `pages`.
    label_pages: u64,
    pos: DagPosUpdate,
}

fn journal_record(tag: u32, u: NodeId, v: NodeId) -> [u8; JOURNAL_ENTRY as usize] {
    let mut rec = [0u8; JOURNAL_ENTRY as usize];
    rec[0..4].copy_from_slice(&tag.to_le_bytes());
    rec[4..8].copy_from_slice(&u.to_le_bytes());
    rec[8..12].copy_from_slice(&v.to_le_bytes());
    rec
}

/// Makes a create or rename in `path`'s directory durable.
fn sync_dir(path: &Path) -> io::Result<()> {
    let dir = path
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    std::fs::File::open(dir)?.sync_all()
}

/// Forgets `path` in the pool, cuts the file to `len` bytes, and reopens
/// it — dropping a torn or failed tail of the log so no reader replays it.
fn cut_log(env: &DiskEnv, path: &Path, len: u64) -> io::Result<CountedFile> {
    env.evict(path);
    std::fs::OpenOptions::new()
        .write(true)
        .open(path)?
        .set_len(len)?;
    CountedFile::open_rw(env, path)
}

/// The write handle over a stored [`SccIndex`]: classifies and applies
/// [`DeltaBatch`]es, maintains the dirty set, and re-verifies lazily. One
/// engine owns the artifact's write path; concurrent readers keep using
/// [`SccIndexReader`](crate::index::SccIndexReader) handles and swap to the
/// new generation whenever they choose to reopen.
///
/// The engine holds the base graph the index was built from — deltas are
/// journaled on top of it, so the current edge multiset is
/// `base ⊎ journal` and re-verification can reconstruct any component's
/// induced subgraph without a full graph rewrite.
pub struct DeltaEngine<'a> {
    env: &'a DiskEnv,
    base: &'a EdgeListGraph,
    path: PathBuf,
    /// The artifact as last folded; read-only between folds.
    file: CountedFile,
    /// Its length in bytes.
    base_len: u64,
    /// The log's page images over it.
    overlay: Overlay,
    /// Header of the current generation.
    hdr: Header,
    dag: DagAdj,
    /// Record slot of every stored DAG record (tombstones included — a
    /// re-added edge reuses its tombstone's slot).
    dag_pos: HashMap<(NodeId, NodeId), u64>,
    dirty: DirtySet,
    /// The `<artifact>.dlog` sidecar, its valid length, and where its
    /// commit records start (after the checkpoint, if any).
    log: CountedFile,
    log_end: u64,
    log_commits_from: u64,
    /// Every journal operation since the build, in order.
    ops: Vec<u8>,
}

impl std::fmt::Debug for DeltaEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeltaEngine")
            .field("path", &self.path)
            .field("generation", &self.hdr.generation)
            .field("n_sccs", &self.hdr.n_sccs)
            .field("n_dirty", &(self.dirty.set.len() as u64))
            .field("n_journal", &self.hdr.n_journal)
            .finish()
    }
}

impl<'a> DeltaEngine<'a> {
    /// Opens the artifact at `path` for maintenance. First finishes a fold
    /// that stopped between its two renames (see the module docs), then
    /// validates the artifact and replays its log (same protocol as
    /// [`SccIndex::open`]), requires the condensation DAG section, requires
    /// `env`'s block size to equal the artifact's page size, requires the
    /// log to hold exactly the journal the header authenticates, drops a
    /// torn log tail, and loads the DAG adjacency and dirty set.
    pub fn open(
        env: &'a DiskEnv,
        base: &'a EdgeListGraph,
        path: &Path,
    ) -> io::Result<DeltaEngine<'a>> {
        let jpath = journal_path(path);
        if dlog::roll_forward(path)? {
            sync_dir(&jpath)?;
        }
        // This engine is the log's only writer: forget whatever the pool
        // remembers of it, so the handle below sees the file on disk.
        env.evict(&jpath);
        let (mut file, replay) = SccIndex::open_owned(env, path)?;
        let hdr = replay.hdr;
        if hdr.dag_off == 0 {
            return Err(bad(
                "the index was built without the condensation DAG section, which the \
                 delta engine needs to classify updates; rebuild it with \
                 `scc index build --with-condensation` \
                 (`SccSession::condensation(true)` from the API)",
            ));
        }
        let block = env.config().block_size as u64;
        if block != hdr.page_size {
            return Err(bad(&format!(
                "environment block size {block} does not match the artifact's page \
                 size {} — delta updates patch whole pages, so the geometries must \
                 agree (sniff the page size first; `scc index apply` does)",
                hdr.page_size
            )));
        }
        if base.n_nodes() != hdr.n_nodes {
            return Err(bad(&format!(
                "base graph covers {} nodes but the index covers {} — the delta \
                 engine needs the graph the index was built from",
                base.n_nodes(),
                hdr.n_nodes
            )));
        }
        if hdr.n_journal.checked_mul(JOURNAL_ENTRY) != Some(replay.ops.len() as u64) {
            return Err(bad(&format!(
                "delta log {} holds {} journal entries but the index header records {}",
                jpath.display(),
                replay.ops.len() as u64 / JOURNAL_ENTRY,
                hdr.n_journal
            )));
        }
        let base_len = file.len_bytes()?;

        let mut dag = DagAdj::new(hdr.n_nodes);
        let mut dag_pos = HashMap::new();
        let mut dirty = DirtySet::default();
        {
            let mut io = OverlayIo::new(&mut file, &replay.overlay, hdr.page_size);
            // DAG records (tombstones included: they own reusable slots).
            let mut chunk = vec![0u8; hdr.page_size as usize];
            let mut at = 0u64;
            while at < hdr.n_dag_edges {
                let take = (hdr.n_dag_edges - at).min(chunk.len() as u64 / DAG_ENTRY);
                let bytes = (take * DAG_ENTRY) as usize;
                read_exact_at(
                    &mut io,
                    hdr.dag_off + at * DAG_ENTRY,
                    &mut chunk[..bytes],
                    "dag section",
                )?;
                for (i, raw) in chunk[..bytes].chunks_exact(DAG_ENTRY as usize).enumerate() {
                    let s = NodeId::from_le_bytes(raw[0..4].try_into().unwrap());
                    let d = NodeId::from_le_bytes(raw[4..8].try_into().unwrap());
                    let c = u32::from_le_bytes(raw[8..12].try_into().unwrap());
                    dag_pos.insert((s, d), at + i as u64);
                    if c > 0 {
                        dag.add(s, d, c);
                    }
                }
                at += take;
            }
            let bytes = (hdr.n_dirty * DIRTY_ENTRY) as usize;
            let mut raw = vec![0u8; bytes];
            read_exact_at(&mut io, hdr.dirty_off, &mut raw, "dirty section")?;
            for r in raw.chunks_exact(DIRTY_ENTRY as usize) {
                dirty.insert(NodeId::from_le_bytes(r.try_into().unwrap()));
            }
        }

        // The log: a fresh one when there is none or it belongs to an
        // earlier artifact; otherwise cut any torn tail before appending.
        let log = if replay.stale || !jpath.exists() {
            let log = CountedFile::create_persistent(env, &jpath)?;
            sync_dir(&jpath)?;
            log
        } else {
            let log = CountedFile::open_rw(env, &jpath)?;
            if log.len_bytes()? != replay.end {
                drop(log);
                cut_log(env, &jpath, replay.end)?
            } else {
                log
            }
        };

        Ok(DeltaEngine {
            env,
            base,
            path: path.to_path_buf(),
            file,
            base_len,
            overlay: replay.overlay,
            hdr,
            dag,
            dag_pos,
            dirty,
            log,
            log_end: replay.end,
            log_commits_from: replay.checkpoint_end,
            ops: replay.ops,
        })
    }

    /// Current index generation.
    pub fn generation(&self) -> u64 {
        self.hdr.generation
    }

    /// Current number of stored components (dirty components count once —
    /// their possible splits are not yet materialized).
    pub fn n_sccs(&self) -> u64 {
        self.hdr.n_sccs
    }

    /// Nodes covered by the index (fixed at build).
    pub fn n_nodes(&self) -> u64 {
        self.hdr.n_nodes
    }

    /// Components currently marked dirty.
    pub fn n_dirty(&self) -> u64 {
        self.dirty.set.len() as u64
    }

    /// Representatives of the dirty components, ascending.
    pub fn dirty_components(&self) -> Vec<NodeId> {
        self.dirty.set.iter().copied().collect()
    }

    /// Journal entries accumulated since the build.
    pub fn n_journal(&self) -> u64 {
        self.hdr.n_journal
    }

    /// Live condensation edges, `(src, dst)` sorted, from memory (no I/O).
    pub fn condensation_edges(&self) -> Vec<CountedEdge> {
        self.dag.live_sorted()
    }

    /// Runs `f` as one transaction over the live DAG and dirty set: on
    /// error every change `f` made to them is undone.
    fn transact<T>(&mut self, f: impl FnOnce(&mut Self) -> io::Result<T>) -> io::Result<T> {
        self.dag.begin();
        self.dirty.begin();
        let out = f(self);
        if out.is_ok() {
            self.dag.commit();
            self.dirty.commit();
        } else {
            self.dag.rollback();
            self.dirty.rollback();
        }
        out
    }

    /// Applies one batch: classifies every operation against the current
    /// index (span `delta_classify`), then commits a new generation (span
    /// `delta_merge`) — as one log record when nothing merged, by a fold
    /// otherwise (see the module docs). On error nothing is changed — the
    /// engine and the index both stay at the current generation, and the
    /// apply can be retried.
    pub fn apply(&mut self, batch: &DeltaBatch) -> io::Result<DeltaReport> {
        let before = self.env.stats().snapshot();
        if batch.is_empty() {
            return Ok(DeltaReport {
                generation: self.hdr.generation,
                ..DeltaReport::default()
            });
        }
        for &(u, v) in batch.edges_added.iter().chain(&batch.edges_removed) {
            if u as u64 >= self.hdr.n_nodes || v as u64 >= self.hdr.n_nodes {
                return Err(bad(&format!(
                    "edge ({u}, {v}) is outside the index's node universe (0..{}); \
                     delta maintenance never grows the node set",
                    self.hdr.n_nodes
                )));
            }
        }
        let mut report = self.transact(|e| e.apply_txn(batch))?;
        report.generation = self.hdr.generation;
        report.ios = self.env.stats().snapshot().since(&before);
        Ok(report)
    }

    fn apply_txn(&mut self, batch: &DeltaBatch) -> io::Result<DeltaReport> {
        let (plan, mut report) = self.classify(batch)?;
        let sp = ce_extmem::io_span!(
            self.env,
            "delta_merge",
            merges = report.merges,
            journal = plan.journal.len() / JOURNAL_ENTRY as usize,
        );
        report.label_pages_rewritten = self.materialize(plan)?;
        drop(sp);
        Ok(report)
    }

    /// Classifies every operation of `batch` against the live state (span
    /// `delta_classify`), applying its DAG and dirty-set changes under the
    /// open transaction, and returns the write plan of the new generation.
    fn classify(&mut self, batch: &DeltaBatch) -> io::Result<(Plan, DeltaReport)> {
        let sp = ce_extmem::io_span!(
            self.env,
            "delta_classify",
            adds = batch.edges_added.len(),
            removes = batch.edges_removed.len(),
        );
        let mut uf = UnionFind::default();
        let mut plan = Plan::new();
        let mut report = DeltaReport::default();
        // Size entries changed by this batch's merges.
        let mut sizes = SizePatch {
            n_sccs: self.hdr.n_sccs,
            entries: BTreeMap::new(),
        };

        for &(u, v) in &batch.edges_added {
            let ru = uf.find(lookup_rep(&mut self.file, &self.hdr, u)?);
            let rv = uf.find(lookup_rep(&mut self.file, &self.hdr, v)?);
            plan.journal.extend_from_slice(&journal_record(0, u, v));
            if ru == rv {
                report.intra_added += 1;
                continue;
            }
            if self.dag.count(ru, rv) > 0 {
                self.dag.add(ru, rv, 1);
                report.dag_reinforced += 1;
            } else if self.dag.reaches(rv, ru) {
                // Cycle: merge every component on some rv ⇝ ru path.
                let ids = self.dag.between(rv, ru);
                let pos: HashMap<NodeId, u32> = ids
                    .iter()
                    .enumerate()
                    .map(|(i, &r)| (r, i as u32))
                    .collect();
                let mut edges: Vec<Edge> = Vec::new();
                for &a in &ids {
                    if let Some(nbrs) = self.dag.fwd.get(&a) {
                        for b in nbrs {
                            if let Some(&pb) = pos.get(b) {
                                edges.push(Edge::new(pos[&a], pb));
                            }
                        }
                    }
                }
                edges.push(Edge::new(pos[&ru], pos[&rv]));
                let res = tarjan_scc(&CsrGraph::from_edges(ids.len() as u64, &edges));
                let mut groups: HashMap<u32, Vec<NodeId>> = HashMap::new();
                for (i, &c) in res.comp.iter().enumerate() {
                    groups.entry(c).or_default().push(ids[i]);
                }
                for (_, members) in groups {
                    if members.len() < 2 {
                        continue;
                    }
                    // Canonical labeling: every rep is the minimum member
                    // id of its component, so the merged component's
                    // canonical rep is the minimum of the merged reps.
                    let l = *members.iter().min().unwrap();
                    let was_dirty = members.iter().any(|m| self.dirty.contains(m));
                    let set: HashSet<NodeId> = members.iter().copied().collect();
                    let mut total = 0u64;
                    for &m in &members {
                        // A member merged earlier in this batch already
                        // carries its merged size.
                        let stored = read_size(&mut self.file, &self.hdr, m)?;
                        report.merged_nodes += stored;
                        total += sizes.entries.get(&m).copied().unwrap_or(stored);
                        sizes.entries.insert(m, 0);
                        uf.merge_into(m, l);
                        self.dirty.remove(&m);
                    }
                    sizes.entries.insert(l, total);
                    sizes.n_sccs -= members.len() as u64 - 1;
                    if was_dirty {
                        // A coarse constituent keeps the merged component
                        // conservative: it stays dirty.
                        self.dirty.insert(l);
                    }
                    self.dag.remap(&set, l);
                    report.merges += 1;
                    report.merged_components += members.len() as u64;
                }
                continue; // the new edge became intra-component
            } else {
                // No rv ⇝ ru path: the insert respects the DAG order.
                self.dag.add(ru, rv, 1);
                report.dag_appended += 1;
            }
        }

        for &(u, v) in &batch.edges_removed {
            let ru = uf.find(lookup_rep(&mut self.file, &self.hdr, u)?);
            let rv = uf.find(lookup_rep(&mut self.file, &self.hdr, v)?);
            plan.journal.extend_from_slice(&journal_record(1, u, v));
            if ru == rv {
                // Intra-component: possibly splits — defer to lazy
                // re-verification. Self-loop deletions can never split.
                if u != v && self.dirty.insert(ru) {
                    report.dirty_marked += 1;
                }
            } else {
                let c = self.dag.count(ru, rv);
                if c == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!(
                            "cannot remove edge ({u}, {v}): no {ru} → {rv} \
                             condensation edge — the edge is not in the current graph"
                        ),
                    ));
                }
                self.dag.set(ru, rv, c - 1);
                if c == 1 {
                    report.dag_dropped += 1;
                } else {
                    report.dag_weakened += 1;
                }
            }
        }
        drop(sp);

        plan.dirty_changed = self.dirty.changed();
        if report.merges > 0 {
            // Merges relabel the absorbed components' nodes and patch the
            // size entries of the components they changed.
            plan.label_patch = LabelPatch::ByRep(uf.relabel_map());
            plan.sizes = Some(sizes);
        }
        Ok((plan, report))
    }

    /// The component representative for `u` against the **current** graph:
    /// if `u`'s component is dirty it is re-verified first (the lazy path),
    /// so the answer is always exact.
    pub fn component_of(&mut self, u: NodeId) -> io::Result<NodeId> {
        let r = lookup_rep(&mut self.file, &self.hdr, u)?;
        if self.dirty.contains(&r) {
            self.reverify(&[r])?;
            return lookup_rep(&mut self.file, &self.hdr, u);
        }
        Ok(r)
    }

    /// Exact `same_component` against the current graph (re-verifies
    /// lazily like [`DeltaEngine::component_of`]).
    pub fn same_component(&mut self, u: NodeId, v: NodeId) -> io::Result<bool> {
        Ok(self.component_of(u)? == self.component_of(v)?)
    }

    /// Exact component size against the current graph.
    pub fn component_size(&mut self, u: NodeId) -> io::Result<u64> {
        self.component_of(u)?;
        lookup_size(&mut self.file, &self.hdr, u)
    }

    /// Re-verifies **all** dirty components (span `delta_compact`),
    /// materializing any splits into a new generation, and reclaims every
    /// tombstoned condensation-DAG slot (records whose multiplicity dropped
    /// to zero and that no re-add has reused): the DAG section is rewritten
    /// with live edges only and the file shrinks to the new geometry.
    /// Idempotent; a clean, tombstone-free index is a no-op at zero writes.
    pub fn compact(&mut self) -> io::Result<CompactReport> {
        let before = self.env.stats().snapshot();
        let dirty = self.dirty_components();
        let mut report = self.reverify(&dirty)?;
        // Re-verification reclaims the tombstones it would leave; those of
        // cross-component deletions and merges wait for this rewrite, which
        // makes the stored record count match the live condensation again.
        let tombstones = self.tombstones();
        if tombstones == 0 {
            return Ok(report);
        }
        let sp = ce_extmem::io_span!(self.env, "delta_compact", components = 0usize);
        let plan = Plan {
            rewrite_dag: true,
            ..Plan::new()
        };
        self.transact(|e| e.materialize(plan))?;
        drop(sp);
        report.generation = self.hdr.generation;
        report.dag_slots_reclaimed += tombstones;
        report.ios = self.env.stats().snapshot().since(&before);
        Ok(report)
    }

    /// Tombstoned DAG slots the section holds once the open transaction's
    /// write set is patched in (every live key owns a slot; a changed key
    /// without one is appended).
    fn tombstones(&self) -> u64 {
        let appended = self
            .dag
            .changes()
            .into_iter()
            .filter(|(k, _)| !self.dag_pos.contains_key(k))
            .count();
        (self.dag_pos.len() + appended - self.dag.counts.len()) as u64
    }

    /// The full exact label vector (re-verifies everything dirty first) —
    /// the conformance seam the differential harness compares against a
    /// from-scratch rebuild.
    pub fn labels_snapshot(&mut self) -> io::Result<Vec<NodeId>> {
        self.compact()?;
        let mut labels = Vec::with_capacity(self.hdr.n_nodes as usize);
        self.scan_labels(|_, rep| labels.push(rep))?;
        Ok(labels)
    }

    /// Recomputes the SCCs of the listed dirty components' induced
    /// subgraphs (non-dirty entries are skipped) and materializes the
    /// result. The induced subgraph comes from the base edge file plus the
    /// journal — the current multiset — restricted to the components'
    /// members.
    fn reverify(&mut self, reps: &[NodeId]) -> io::Result<CompactReport> {
        let before = self.env.stats().snapshot();
        let targets: BTreeSet<NodeId> =
            reps.iter().copied().filter(|r| self.dirty.contains(r)).collect();
        if targets.is_empty() {
            return Ok(CompactReport {
                generation: self.hdr.generation,
                ..CompactReport::default()
            });
        }
        let sp = ce_extmem::io_span!(self.env, "delta_compact", components = targets.len());
        let mut report = self.transact(|e| e.reverify_txn(&targets))?;
        drop(sp);
        report.generation = self.hdr.generation;
        report.ios = self.env.stats().snapshot().since(&before);
        Ok(report)
    }

    fn reverify_txn(&mut self, targets: &BTreeSet<NodeId>) -> io::Result<CompactReport> {
        // Members of the target components, with their stored labels.
        let mut members: Vec<NodeId> = Vec::new();
        let mut old_label: HashMap<NodeId, NodeId> = HashMap::new();
        self.scan_labels(|node, rep| {
            if targets.contains(&rep) {
                members.push(node);
                old_label.insert(node, rep);
            }
        })?;
        let member_set: HashSet<NodeId> = members.iter().copied().collect();

        // Current multiset of edges incident to the members:
        // base edges plus journal replay (a deletion removes one instance;
        // deletions of instances that never existed are ignored — they can
        // only be intra-component ones, which classification admits).
        let mut incident: HashMap<(NodeId, NodeId), u64> = HashMap::new();
        {
            let mut r = self.base.edges().reader()?;
            while let Some(e) = r.next()? {
                if member_set.contains(&e.src) || member_set.contains(&e.dst) {
                    *incident.entry((e.src, e.dst)).or_insert(0) += 1;
                }
            }
        }
        for raw in self.ops.chunks_exact(JOURNAL_ENTRY as usize) {
            let tag = u32::from_le_bytes(raw[0..4].try_into().unwrap());
            let u = NodeId::from_le_bytes(raw[4..8].try_into().unwrap());
            let v = NodeId::from_le_bytes(raw[8..12].try_into().unwrap());
            if !(member_set.contains(&u) || member_set.contains(&v)) {
                continue;
            }
            let e = incident.entry((u, v)).or_insert(0);
            if tag == 0 {
                *e += 1;
            } else if *e > 0 {
                *e -= 1;
            }
        }

        // The induced subgraph (both endpoints inside) through the kernel.
        let pos: HashMap<NodeId, u32> = members
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, i as u32))
            .collect();
        let mut edges: Vec<Edge> = Vec::new();
        for (&(a, b), &c) in &incident {
            if c > 0 {
                if let (Some(&pa), Some(&pb)) = (pos.get(&a), pos.get(&b)) {
                    edges.push(Edge::new(pa, pb));
                }
            }
        }
        let res = tarjan_scc(&CsrGraph::from_edges(members.len() as u64, &edges));
        let mut groups: HashMap<u32, Vec<NodeId>> = HashMap::new();
        for (i, &c) in res.comp.iter().enumerate() {
            groups.entry(c).or_default().push(members[i]);
        }
        let mut new_label: HashMap<NodeId, NodeId> = HashMap::new();
        let mut new_comps: Vec<(NodeId, u64)> = Vec::new();
        for group in groups.values() {
            let rep = *group.iter().min().unwrap();
            new_comps.push((rep, group.len() as u64));
            for &m in group {
                new_label.insert(m, rep);
            }
        }

        // Size entries: the targets' out, the re-verified components' in.
        let mut sizes = SizePatch {
            n_sccs: self.hdr.n_sccs - targets.len() as u64 + new_comps.len() as u64,
            entries: targets.iter().map(|&r| (r, 0)).collect(),
        };
        sizes.entries.extend(new_comps.iter().copied());

        // New DAG: drop everything touching the targets, recompute from the
        // incident multiset (memoizing outside components' labels).
        self.dag.drop_touching(targets);
        let mut outside: HashMap<NodeId, NodeId> = HashMap::new();
        let mut acc: BTreeMap<(NodeId, NodeId), u64> = BTreeMap::new();
        for (&(a, b), &c) in &incident {
            if c == 0 {
                continue;
            }
            let mut label = |x: NodeId| -> io::Result<NodeId> {
                if let Some(&l) = new_label.get(&x).or_else(|| outside.get(&x)) {
                    return Ok(l);
                }
                let l = lookup_rep(&mut self.file, &self.hdr, x)?;
                outside.insert(x, l);
                Ok(l)
            };
            let (la, lb) = (label(a)?, label(b)?);
            if la != lb {
                *acc.entry((la, lb)).or_insert(0) += c;
            }
        }
        for ((s, d), c) in acc {
            self.dag.add(s, d, c.min(u32::MAX as u64) as u32);
        }
        for r in targets {
            self.dirty.remove(r);
        }

        let changed: HashMap<NodeId, NodeId> = new_label
            .iter()
            .filter(|(n, l)| old_label.get(n) != Some(l))
            .map(|(&n, &l)| (n, l))
            .collect();
        // The DAG changes are patched in unless they would leave tombstoned
        // slots behind: then the section is rewritten instead, reclaiming
        // them — re-verification scans the whole base edge file anyway, so
        // the rewrite does not change its cost's order.
        let reclaimed = self.tombstones();
        let report = CompactReport {
            generation: 0,
            components_reverified: targets.len() as u64,
            components_after: groups.len() as u64,
            relabeled_nodes: changed.len() as u64,
            dag_slots_reclaimed: reclaimed,
            ios: IoSnapshot::default(),
        };
        let plan = Plan {
            label_patch: LabelPatch::ByNode(changed),
            sizes: Some(sizes),
            rewrite_dag: reclaimed > 0,
            dirty_changed: true,
            ..Plan::new()
        };
        self.materialize(plan)?;
        Ok(report)
    }

    /// Streams every `(node, stored label)` pair sequentially.
    fn scan_labels(&mut self, mut f: impl FnMut(NodeId, NodeId)) -> io::Result<()> {
        let page = self.hdr.page_size;
        let per = page / 4;
        let mut buf = vec![0u8; page as usize];
        for p in 0..self.hdr.label_pages() {
            if self.file.read_at(self.hdr.labels_off + p * page, &mut buf)?
                != buf.len()
            {
                return Err(bad("labels section truncated"));
            }
            for slot in 0..per {
                let node = p * per + slot;
                if node >= self.hdr.n_nodes {
                    break;
                }
                let at = (slot * 4) as usize;
                f(
                    node as NodeId,
                    NodeId::from_le_bytes(buf[at..at + 4].try_into().unwrap()),
                );
            }
        }
        Ok(())
    }

    /// Commits a plan as generation `g + 1` — as one log record when the
    /// plan rewrites no label, size or whole-DAG pages and the log's commit
    /// records do not yet outweigh the artifact, by a fold otherwise.
    /// Returns the number of label pages rewritten.
    fn materialize(&mut self, plan: Plan) -> io::Result<u64> {
        let staged = self.stage(&plan)?;
        if plan.appendable() && self.log_end - self.log_commits_from <= self.base_len {
            self.append(&plan.journal, staged)
        } else {
            self.fold(&plan.journal, staged)
        }
    }

    /// Computes generation `g + 1` as page images over the current
    /// generation (the artifact with the log's images laid over it),
    /// reading through the counted pager.
    fn stage(&mut self, plan: &Plan) -> io::Result<Staged> {
        let hdr = self.hdr;
        let page = hdr.page_size;
        let mut pages: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut io = OverlayIo::new(&mut self.file, &self.overlay, page);

        // Labels: sequential scan, stage only pages whose bytes change.
        let mut labels_xor = hdr.labels_xor;
        let mut label_pages = 0u64;
        if !matches!(plan.label_patch, LabelPatch::None) {
            let per = page / 4;
            let mut buf = vec![0u8; page as usize];
            for p in 0..hdr.label_pages() {
                let off = hdr.labels_off + p * page;
                read_exact_at(&mut io, off, &mut buf, "labels section")?;
                let mut newbuf = buf.clone();
                let mut changed = false;
                for slot in 0..per {
                    let node = p * per + slot;
                    if node >= hdr.n_nodes {
                        break;
                    }
                    let at = (slot * 4) as usize;
                    let old = NodeId::from_le_bytes(newbuf[at..at + 4].try_into().unwrap());
                    let new = match &plan.label_patch {
                        LabelPatch::ByRep(m) => m.get(&old),
                        LabelPatch::ByNode(m) => m.get(&(node as NodeId)),
                        LabelPatch::None => None,
                    };
                    if let Some(&nl) = new {
                        if nl != old {
                            newbuf[at..at + 4].copy_from_slice(&nl.to_le_bytes());
                            changed = true;
                        }
                    }
                }
                if changed {
                    labels_xor ^= page_hash(p, &buf) ^ page_hash(p, &newbuf);
                    pages.insert(off, newbuf);
                    label_pages += 1;
                }
            }
        }

        // Size table: patch the pages holding the entries that change.
        let (n_sccs, sizes_xor) = match &plan.sizes {
            Some(patch) => {
                let writes: Vec<(u64, [u8; SIZE_ENTRY as usize])> = patch
                    .entries
                    .iter()
                    .map(|(&rep, &size)| (SIZE_ENTRY * rep as u64, size.to_le_bytes()))
                    .collect();
                let mut xor = hdr.sizes_xor;
                patch_pages(
                    &mut io,
                    &mut pages,
                    hdr.sizes_off,
                    page,
                    hdr.size_pages(),
                    &mut xor,
                    &writes,
                    "size table",
                )?;
                (patch.n_sccs, xor)
            }
            None => (hdr.n_sccs, hdr.sizes_xor),
        };

        // DAG section: the transaction's write set, patched in place
        // (reinforced, weakened or tombstoned records keep their slot) or
        // appended at the tail, with O(1) per-page checksum updates; or a
        // compact rewrite of the live edges.
        let (n_dag, dag_xor, pos) = if plan.rewrite_dag {
            let recs = self.dag.live_sorted();
            let mut out: Vec<u8> = Vec::with_capacity(recs.len() * DAG_ENTRY as usize);
            let mut pos = HashMap::with_capacity(recs.len());
            for (i, e) in recs.iter().enumerate() {
                out.extend_from_slice(&dag_record(e.src, e.dst, e.count));
                pos.insert((e.src, e.dst), i as u64);
            }
            let mut xor = 0u64;
            stage_padded(&mut pages, hdr.dag_off, page, &out, Some(&mut xor));
            (recs.len() as u64, xor, DagPosUpdate::Replace(pos))
        } else {
            let mut writes: Vec<(u64, [u8; DAG_ENTRY as usize])> = Vec::new();
            let mut appended: Vec<((NodeId, NodeId), u64)> = Vec::new();
            for ((s, d), c) in self.dag.changes() {
                let slot = match self.dag_pos.get(&(s, d)) {
                    Some(&slot) => slot,
                    None => {
                        // Stored count 0 without a slot, so now live.
                        let slot = hdr.n_dag_edges + appended.len() as u64;
                        appended.push(((s, d), slot));
                        slot
                    }
                };
                writes.push((slot * DAG_ENTRY, dag_record(s, d, c)));
            }
            let mut xor = hdr.dag_xor;
            patch_pages(
                &mut io,
                &mut pages,
                hdr.dag_off,
                page,
                hdr.dag_pages(),
                &mut xor,
                &writes,
                "dag section",
            )?;
            (
                hdr.n_dag_edges + appended.len() as u64,
                xor,
                DagPosUpdate::Append(appended),
            )
        };

        // Dirty section: rewritten when its content changed or the DAG
        // grew or shrank under it.
        let dirty_off = align_up(hdr.dag_off + DAG_ENTRY * n_dag, page);
        let (n_dirty, dirty_fnv) = if plan.dirty_changed || dirty_off != hdr.dirty_off {
            let mut fnv = Fnv::new();
            let mut out: Vec<u8> = Vec::with_capacity(self.dirty.set.len() * DIRTY_ENTRY as usize);
            for &r in &self.dirty.set {
                fnv.update(&r.to_le_bytes());
                out.extend_from_slice(&r.to_le_bytes());
            }
            stage_padded(&mut pages, dirty_off, page, &out, None);
            (self.dirty.set.len() as u64, fnv.finish())
        } else {
            (hdr.n_dirty, hdr.dirty_fnv)
        };

        let hdr = Header {
            n_sccs,
            n_dag_edges: n_dag,
            labels_xor,
            sizes_xor,
            dag_xor,
            dirty_off,
            n_dirty,
            dirty_fnv,
            generation: hdr.generation + 1,
            n_journal: hdr.n_journal + plan.journal.len() as u64 / JOURNAL_ENTRY,
            journal_fnv: {
                let mut fnv = Fnv::from_state(hdr.journal_fnv);
                fnv.update(&plan.journal);
                fnv.finish()
            },
            ..hdr
        };
        Ok(Staged {
            hdr,
            pages,
            label_pages,
            pos,
        })
    }

    /// Installs a committed generation's DAG slot changes.
    fn install_pos(&mut self, pos: DagPosUpdate) {
        match pos {
            DagPosUpdate::Replace(pos) => self.dag_pos = pos,
            DagPosUpdate::Append(slots) => self.dag_pos.extend(slots),
        }
    }

    /// Commits `staged` as one log record: a single write at the end of the
    /// valid prefix and a single fsync, the commit point. A failed write or
    /// sync cuts the log back so no reader replays the record.
    fn append(&mut self, ops: &[u8], staged: Staged) -> io::Result<u64> {
        let images: Vec<(u64, &[u8])> = staged.pages.iter().map(|(&o, b)| (o, &b[..])).collect();
        debug_assert!(images.iter().all(|&(o, _)| o >= self.hdr.dag_off));
        let rec = dlog::encode(
            KIND_COMMIT,
            self.hdr.tag(),
            ops,
            &images,
            &staged.hdr,
            self.hdr.page_size,
        );
        let written = self
            .log
            .write_at(self.log_end, &rec)
            .and_then(|()| self.log.sync());
        if let Err(e) = written {
            self.log = cut_log(self.env, &journal_path(&self.path), self.log_end)?;
            return Err(e);
        }
        self.log_end += rec.len() as u64;
        for (off, img) in &staged.pages {
            self.overlay.insert(*off, img);
        }
        self.ops.extend_from_slice(ops);
        self.hdr = staged.hdr;
        self.install_pos(staged.pos);
        Ok(staged.label_pages)
    }

    /// Commits `staged` by a fold (see the module docs): fork, patch,
    /// fsync, rename — the commit point — then put a new log holding one
    /// checkpoint record in place of the old one.
    fn fold(&mut self, ops: &[u8], staged: Staged) -> io::Result<u64> {
        let tmp = self.path.with_file_name(format!(
            "{}.g{}.tmp",
            self.path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default(),
            staged.hdr.generation
        ));
        let log_tmp = dlog::fold_tmp_path(&self.path);
        let jpath = journal_path(&self.path);
        let mut journal = Vec::with_capacity(self.ops.len() + ops.len());
        journal.extend_from_slice(&self.ops);
        journal.extend_from_slice(ops);
        let forked = self
            .write_fork(&tmp, &staged)
            .and_then(|()| {
                let rec = dlog::encode(
                    KIND_CHECKPOINT,
                    staged.hdr.tag(),
                    &journal,
                    &[],
                    &staged.hdr,
                    self.hdr.page_size,
                );
                let mut f = std::fs::File::create(&log_tmp)?;
                f.write_all(&rec)?;
                f.sync_all()
            })
            .and_then(|()| std::fs::rename(&tmp, &self.path));
        if let Err(e) = forked {
            self.env.evict(&tmp);
            let _ = std::fs::remove_file(&tmp);
            let _ = std::fs::remove_file(&log_tmp);
            return Err(e);
        }
        // Commit point passed. The pager interns files by path, so both
        // names now alias stale state: the artifact path still maps to the
        // pre-swap inode, and the tmp name maps to the renamed one. Evict
        // both (the fork handle synced its frames) and the log, and reopen
        // under the real names.
        for p in [&self.path, &tmp, &jpath] {
            self.env.evict(p);
        }
        self.file = CountedFile::open_read(self.env, &self.path)?;
        self.base_len = staged.hdr.file_len();
        self.overlay = Overlay::default();
        self.ops = journal;
        self.hdr = staged.hdr;
        self.install_pos(staged.pos);
        // The generation is committed; if this rename fails, the next open
        // rolls the fold forward.
        std::fs::rename(&log_tmp, &jpath)?;
        sync_dir(&jpath)?;
        self.log = CountedFile::open_rw(self.env, &jpath)?;
        self.log_end = self.log.len_bytes()?;
        self.log_commits_from = self.log_end;
        Ok(staged.label_pages)
    }

    /// Writes the fork at `tmp`: an OS-level copy of the artifact with the
    /// log's images laid over it (the current generation, cloned outside
    /// the I/O model), then the staged pages and the new header through the
    /// counted pager, fsynced and cut to the new length.
    fn write_fork(&mut self, tmp: &Path, staged: &Staged) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        std::fs::copy(&self.path, tmp)?;
        {
            let f = std::fs::OpenOptions::new().write(true).open(tmp)?;
            for (off, img) in self.overlay.sorted() {
                f.write_all_at(img, off)?;
            }
        }
        let mut f = CountedFile::open_rw(self.env, tmp)?;
        for (&off, img) in &staged.pages {
            f.write_at(off, img)?;
        }
        f.write_at(0, &staged.hdr.encode())?;
        f.sync()?;
        // Shrink to the exact new geometry when sections contracted. A raw
        // metadata truncate, like the fork copy: not a block transfer.
        let want = staged.hdr.file_len();
        if f.len_bytes()? > want {
            std::fs::OpenOptions::new()
                .write(true)
                .open(tmp)?
                .set_len(want)?;
        }
        Ok(())
    }
}

/// How `dag_pos` changes when a materialization commits.
enum DagPosUpdate {
    Replace(HashMap<(NodeId, NodeId), u64>),
    Append(Vec<((NodeId, NodeId), u64)>),
}

fn dag_record(s: NodeId, d: NodeId, c: u32) -> [u8; DAG_ENTRY as usize] {
    let mut rec = [0u8; DAG_ENTRY as usize];
    rec[0..4].copy_from_slice(&s.to_le_bytes());
    rec[4..8].copy_from_slice(&d.to_le_bytes());
    rec[8..12].copy_from_slice(&c.to_le_bytes());
    rec
}

/// Stages `bytes` at `off` as whole zero-padded pages; folds per-page
/// hashes (four at a time) into `xor` when given. Stages nothing (not even
/// a padding page) when `bytes` is empty.
fn stage_padded(
    pages: &mut BTreeMap<u64, Vec<u8>>,
    off: u64,
    page: u64,
    bytes: &[u8],
    xor: Option<&mut u64>,
) {
    let bufs: Vec<Vec<u8>> = bytes
        .chunks(page as usize)
        .map(|chunk| {
            let mut buf = vec![0u8; page as usize];
            buf[..chunk.len()].copy_from_slice(chunk);
            buf
        })
        .collect();
    if let Some(x) = xor {
        let items: Vec<(u64, &[u8])> = bufs
            .iter()
            .enumerate()
            .map(|(p, b)| (p as u64, &b[..]))
            .collect();
        *x = page_hashes(&items).into_iter().fold(*x, |acc, h| acc ^ h);
    }
    for (p, buf) in bufs.into_iter().enumerate() {
        pages.insert(off + p as u64 * page, buf);
    }
}

/// Applies byte-range `writes` (section-relative offsets) to a page-hashed
/// section: reads each affected page once, XORs its old hash out (if the
/// page existed), applies the overlapping slices, stages it, and XORs the
/// new hash in. Fresh pages beyond `old_pages` start as zeros.
#[allow(clippy::too_many_arguments)]
fn patch_pages<const N: usize>(
    io: &mut dyn IndexIo,
    pages: &mut BTreeMap<u64, Vec<u8>>,
    sec_off: u64,
    page: u64,
    old_pages: u64,
    xor: &mut u64,
    writes: &[(u64, [u8; N])],
    what: &str,
) -> io::Result<()> {
    let mut by_page: BTreeMap<u64, Vec<(usize, &[u8])>> = BTreeMap::new();
    for (off, bytes) in writes {
        let mut rel = *off;
        let mut rest: &[u8] = bytes;
        while !rest.is_empty() {
            let p = rel / page;
            let in_page = (rel % page) as usize;
            let take = rest.len().min((page as usize) - in_page);
            by_page.entry(p).or_default().push((in_page, &rest[..take]));
            rest = &rest[take..];
            rel += take as u64;
        }
    }
    for (p, slices) in by_page {
        let mut buf = vec![0u8; page as usize];
        if p < old_pages {
            read_exact_at(io, sec_off + p * page, &mut buf, what)?;
            *xor ^= page_hash(p, &buf);
        }
        for (at, bytes) in slices {
            buf[at..at + bytes.len()].copy_from_slice(bytes);
        }
        *xor ^= page_hash(p, &buf);
        pages.insert(sec_off + p * page, buf);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::{condense_counted, same_partition};
    use ce_extmem::IoConfig;

    fn env() -> DiskEnv {
        DiskEnv::new_temp(IoConfig::new(64, 4096)).unwrap()
    }

    /// Builds the edge file, the ground-truth labels (canonical Tarjan) and
    /// a condensation-bearing index for `edges` over `n` nodes.
    fn setup(env: &DiskEnv, name: &str, n: u64, edges: &[(u32, u32)]) -> (EdgeListGraph, PathBuf) {
        let es: Vec<Edge> = edges.iter().map(|&(u, v)| Edge::new(u, v)).collect();
        let f = env
            .file_from_slice(&format!("{name}-edges"), &es)
            .unwrap();
        let g = EdgeListGraph::new(f, n);
        let reps = tarjan_scc(&CsrGraph::from_edges(n, &es)).canonical_reps();
        let labs: Vec<crate::types::SccLabel> = reps
            .iter()
            .enumerate()
            .map(|(i, &r)| crate::types::SccLabel::new(i as u32, r))
            .collect();
        let lf = env
            .file_from_slice(&format!("{name}-labs"), &labs)
            .unwrap();
        let counted = condense_counted(env, &g, &lf).unwrap();
        let path = env.root().join(format!("{name}.sccidx"));
        SccIndex::build(env, &path, &lf, n, Some(&counted)).unwrap();
        (g, path)
    }

    /// Canonical reps of `edges` over `n` nodes, straight through Tarjan.
    fn scratch(n: u64, edges: &[(u32, u32)]) -> Vec<NodeId> {
        let es: Vec<Edge> = edges.iter().map(|&(u, v)| Edge::new(u, v)).collect();
        tarjan_scc(&CsrGraph::from_edges(n, &es)).canonical_reps()
    }

    /// Counted condensation of `edges` over `n` nodes, from scratch.
    fn scratch_condensation(n: u64, edges: &[(u32, u32)]) -> Vec<CountedEdge> {
        let reps = scratch(n, edges);
        let mut acc: BTreeMap<(NodeId, NodeId), u32> = BTreeMap::new();
        for &(u, v) in edges {
            let (a, b) = (reps[u as usize], reps[v as usize]);
            if a != b {
                *acc.entry((a, b)).or_insert(0) += 1;
            }
        }
        acc.into_iter()
            .map(|((s, d), c)| CountedEdge::new(s, d, c))
            .collect()
    }

    /// Pages a dry run of `batch` would write, by section — `(labels,
    /// sizes, dag)` — staged inside a transaction that is then rolled back.
    fn staged_pages(eng: &mut DeltaEngine<'_>, batch: &DeltaBatch) -> (u64, u64, u64) {
        let hdr = eng.hdr;
        let mut pages = (0, 0, 0);
        let dry = eng.transact(|e| {
            let (plan, _) = e.classify(batch)?;
            let staged = e.stage(&plan)?;
            for &off in staged.pages.keys() {
                if off < hdr.sizes_off {
                    pages.0 += 1;
                } else if off < hdr.dag_off {
                    pages.1 += 1;
                } else if off < staged.hdr.dirty_off {
                    pages.2 += 1;
                }
            }
            Err::<(), _>(io::Error::other("dry run"))
        });
        assert!(dry.is_err());
        pages
    }

    #[test]
    fn merge_writes_do_not_scale_with_the_hub() {
        let mut costs = Vec::new();
        for k in [50u32, 5000] {
            let e = env();
            // Hub {0,1} with k singleton successors 2..k+2, and a
            // singleton s fed by the hub and feeding the first successor.
            let s = k + 2;
            let n = s as u64 + 1;
            let mut edges: Vec<(u32, u32)> = vec![(0, 1), (1, 0), (1, s), (s, 2)];
            edges.extend((2..s).map(|leaf| (0, leaf)));
            let (g, path) = setup(&e, &format!("hub{k}"), n, &edges);
            let mut eng = DeltaEngine::open(&e, &g, &path).unwrap();
            let stored_dag_pages = eng.hdr.dag_pages();
            // s -> 0 closes hub -> s -> hub: s is absorbed into rep 0.
            let batch = DeltaBatch::new().add(s, 0);
            let (labels, sizes, dag) = staged_pages(&mut eng, &batch);
            let rep = eng.apply(&batch).unwrap();
            assert_eq!(rep.merges, 1);
            assert_eq!(rep.merged_nodes, 3);
            assert_eq!(rep.label_pages_rewritten, 1, "k = {k}");
            assert_eq!(labels, 1, "k = {k}");
            assert!(sizes <= 2, "k = {k}: {sizes} size pages");
            assert!(dag < stored_dag_pages, "k = {k}: {dag} of {stored_dag_pages}");
            edges.push((s, 0));
            let want = scratch_condensation(n, &edges);
            assert_eq!(eng.condensation_edges(), want, "k = {k}");
            assert_eq!(eng.component_size(s).unwrap(), 3);
            drop(eng);
            let mut idx = SccIndex::open(&e, &path).unwrap();
            let mut stored: Vec<Edge> = idx.condensation_edges().map(|r| r.unwrap()).collect();
            stored.sort_unstable();
            let want: Vec<Edge> = want.iter().map(|c| Edge::new(c.src, c.dst)).collect();
            assert_eq!(stored, want, "k = {k}: stored condensation");
            costs.push((dag, rep.ios.seq_writes + rep.ios.rand_writes));
        }
        assert_eq!(
            costs[0], costs[1],
            "(DAG pages, logical writes) of a merge must not grow with the hub's degree"
        );
    }

    #[test]
    fn absorbing_a_hub_moves_its_edges_exactly() {
        for k in [50u32, 5000] {
            let e = env();
            // Singleton 0 feeds hub {k+1, k+2}, whose rep k+1 is larger;
            // the hub has k singleton successors 1..=k.
            let (h0, h1) = (k + 1, k + 2);
            let n = h1 as u64 + 1;
            let mut edges: Vec<(u32, u32)> = vec![(h0, h1), (h1, h0), (0, h0), (h1, 1)];
            edges.extend((1..=k).map(|leaf| (h0, leaf)));
            let (g, path) = setup(&e, &format!("absorb{k}"), n, &edges);
            let mut eng = DeltaEngine::open(&e, &g, &path).unwrap();
            // h0 -> 0 closes 0 -> hub -> 0: the hub is absorbed into rep 0.
            let rep = eng.apply(&DeltaBatch::new().add(h0, 0)).unwrap();
            assert_eq!(rep.merges, 1);
            edges.push((h0, 0));
            assert_eq!(eng.labels_snapshot().unwrap(), scratch(n, &edges), "k = {k}");
            assert_eq!(eng.condensation_edges(), scratch_condensation(n, &edges), "k = {k}");
            assert_eq!(eng.component_size(h1).unwrap(), 3);
            drop(eng);
            let mut idx = SccIndex::open(&e, &path).unwrap();
            assert_eq!(idx.component_of(h1).unwrap(), 0);
            assert_eq!(idx.components().filter(|c| c.as_ref().unwrap().1 == 3).count(), 1);
        }
    }

    #[test]
    fn empty_batch_is_a_free_noop() {
        let e = env();
        let (g, path) = setup(&e, "noop", 4, &[(0, 1), (1, 0), (2, 3)]);
        let mut eng = DeltaEngine::open(&e, &g, &path).unwrap();
        let before = e.stats().snapshot();
        let rep = eng.apply(&DeltaBatch::new()).unwrap();
        assert_eq!(rep.generation, 0);
        assert_eq!(e.stats().snapshot().since(&before).total_ios(), 0);
    }

    #[test]
    fn intra_insert_costs_o1_page_writes_independent_of_graph_size() {
        let mut write_costs = Vec::new();
        for (name, n) in [("small", 8u64), ("large", 512u64)] {
            let e = env();
            // A triangle 0->1->2->0 plus n-3 isolated nodes.
            let (g, path) = setup(&e, name, n, &[(0, 1), (1, 2), (2, 0)]);
            let mut eng = DeltaEngine::open(&e, &g, &path).unwrap();
            let rep = eng.apply(&DeltaBatch::new().add(0, 2)).unwrap();
            assert_eq!(rep.generation, 1);
            assert_eq!(rep.intra_added, 1);
            assert_eq!(rep.merges, 0);
            assert_eq!(rep.label_pages_rewritten, 0);
            // Classification: two point reads. No label/sizes/dag writes.
            assert!(rep.ios.seq_reads + rep.ios.rand_reads <= 2, "{:?}", rep.ios);
            write_costs.push(rep.ios.seq_writes + rep.ios.rand_writes);
            assert_eq!(eng.component_of(2).unwrap(), 0);
        }
        assert_eq!(
            write_costs[0], write_costs[1],
            "metadata-only insert write cost must not scale with the graph"
        );
    }

    #[test]
    fn appends_and_reinforcements_update_the_dag() {
        let e = env();
        // {0,1} -> {2,3}, plus {4,5} disconnected.
        let (g, path) = setup(
            &e,
            "dag",
            6,
            &[(0, 1), (1, 0), (2, 3), (3, 2), (1, 2), (4, 5), (5, 4)],
        );
        let mut eng = DeltaEngine::open(&e, &g, &path).unwrap();
        assert_eq!(eng.condensation_edges(), vec![CountedEdge::new(0, 2, 1)]);

        // Reinforce 0->2, append 0->4 and 4->2.
        let rep = eng
            .apply(&DeltaBatch::new().add(0, 3).add(1, 4).add(5, 2))
            .unwrap();
        assert_eq!(rep.dag_reinforced, 1);
        assert_eq!(rep.dag_appended, 2);
        assert_eq!(rep.merges, 0);
        assert_eq!(
            eng.condensation_edges(),
            vec![
                CountedEdge::new(0, 2, 2),
                CountedEdge::new(0, 4, 1),
                CountedEdge::new(4, 2, 1),
            ]
        );
        // The artifact revalidates and agrees after reopen.
        drop(eng);
        let mut idx = SccIndex::open(&e, &path).unwrap();
        assert_eq!(idx.generation(), 1);
        let mut edges: Vec<Edge> = idx.condensation_edges().map(|r| r.unwrap()).collect();
        edges.sort_unstable();
        assert_eq!(
            edges,
            vec![Edge::new(0, 2), Edge::new(0, 4), Edge::new(4, 2)]
        );
    }

    #[test]
    fn cycle_creating_insert_merges_exactly_the_path_components() {
        let e = env();
        // Chain of three 2-cycles: {0,1} -> {2,3} -> {4,5}, and a bystander
        // {6,7} hanging off {0,1} that must NOT be merged.
        let (g, path) = setup(
            &e,
            "merge",
            8,
            &[
                (0, 1), (1, 0), (2, 3), (3, 2), (4, 5), (5, 4),
                (1, 2), (3, 4), (0, 6), (6, 7), (7, 6),
            ],
        );
        let mut eng = DeltaEngine::open(&e, &g, &path).unwrap();
        let rep = eng.apply(&DeltaBatch::new().add(5, 0)).unwrap();
        assert_eq!(rep.merges, 1);
        assert_eq!(rep.merged_components, 3);
        assert_eq!(rep.merged_nodes, 6);
        assert_eq!(eng.n_sccs(), 2);
        for v in 0..6 {
            assert_eq!(eng.component_of(v).unwrap(), 0, "node {v}");
        }
        assert_eq!(eng.component_of(6).unwrap(), 6);
        assert_eq!(eng.component_size(3).unwrap(), 6);
        assert_eq!(eng.component_size(7).unwrap(), 2);
        // Condensation: merged comp 0 -> {6,7}.
        assert_eq!(eng.condensation_edges(), vec![CountedEdge::new(0, 6, 1)]);
        // Reopen from disk: checksums hold, same answers.
        drop(eng);
        let mut idx = SccIndex::open(&e, &path).unwrap();
        assert_eq!(idx.generation(), 1);
        assert_eq!(idx.n_sccs(), 2);
        assert!(idx.same_component(0, 5).unwrap());
        assert!(!idx.same_component(0, 7).unwrap());
    }

    #[test]
    fn merge_rewrites_only_label_pages_owning_affected_nodes() {
        let e = env();
        // 48 nodes = three 64-byte label pages (16 labels each). Pairs
        // (2i, 2i+1) are 2-cycles; a cross edge 1->2 links the first two
        // pairs. Merging {0,1} with {2,3} touches only page 0.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for i in 0..24u32 {
            edges.push((2 * i, 2 * i + 1));
            edges.push((2 * i + 1, 2 * i));
        }
        edges.push((1, 2));
        let (g, path) = setup(&e, "pages", 48, &edges);
        let mut eng = DeltaEngine::open(&e, &g, &path).unwrap();
        let rep = eng.apply(&DeltaBatch::new().add(3, 0)).unwrap();
        assert_eq!(rep.merges, 1);
        assert_eq!(rep.merged_components, 2);
        assert_eq!(rep.merged_nodes, 4);
        assert_eq!(
            rep.label_pages_rewritten, 1,
            "only the page owning nodes 0..=3 may be rewritten"
        );
        for v in 0..4 {
            assert_eq!(eng.component_of(v).unwrap(), 0);
        }
        assert_eq!(eng.component_of(40).unwrap(), 40);
    }

    #[test]
    fn cross_removals_weaken_then_drop_then_reject() {
        let e = env();
        // {0,1} -> {2,3} supported by two base edges.
        let (g, path) = setup(
            &e,
            "rm",
            4,
            &[(0, 1), (1, 0), (2, 3), (3, 2), (0, 2), (1, 3)],
        );
        let mut eng = DeltaEngine::open(&e, &g, &path).unwrap();
        assert_eq!(eng.condensation_edges(), vec![CountedEdge::new(0, 2, 2)]);

        let rep = eng.apply(&DeltaBatch::new().remove(0, 2)).unwrap();
        assert_eq!(rep.dag_weakened, 1);
        assert_eq!(rep.dirty_marked, 0);
        assert_eq!(eng.condensation_edges(), vec![CountedEdge::new(0, 2, 1)]);

        let rep = eng.apply(&DeltaBatch::new().remove(1, 3)).unwrap();
        assert_eq!(rep.dag_dropped, 1);
        assert_eq!(eng.condensation_edges(), vec![]);

        // Nothing supports {0,1} -> {2,3} any more: rejecting, unchanged.
        let gen = eng.generation();
        let err = eng.apply(&DeltaBatch::new().remove(0, 3)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(eng.generation(), gen);
        // A tombstoned slot is reused on re-add (no section growth).
        let n_before = SccIndex::open(&e, &path).unwrap().n_dag_edges();
        eng.apply(&DeltaBatch::new().add(0, 2)).unwrap();
        assert_eq!(eng.condensation_edges(), vec![CountedEdge::new(0, 2, 1)]);
        drop(eng);
        let idx = SccIndex::open(&e, &path).unwrap();
        assert_eq!(idx.n_dag_edges(), n_before, "tombstone slot was reused");
    }

    #[test]
    fn compact_reclaims_tombstoned_dag_slots() {
        let e = env();
        // Two condensation edges out of {0,1}: -> {2,3} and -> {4,5}.
        let (g, path) = setup(
            &e,
            "reclaim",
            6,
            &[(0, 1), (1, 0), (2, 3), (3, 2), (4, 5), (5, 4), (0, 2), (0, 4)],
        );
        let mut eng = DeltaEngine::open(&e, &g, &path).unwrap();
        assert_eq!(
            eng.condensation_edges(),
            vec![CountedEdge::new(0, 2, 1), CountedEdge::new(0, 4, 1)]
        );

        // Dropping the only support of 0 -> 2 tombstones its record: the
        // stored section still holds both slots.
        eng.apply(&DeltaBatch::new().remove(0, 2)).unwrap();
        assert_eq!(SccIndex::open(&e, &path).unwrap().n_dag_edges(), 2);

        // Nothing is dirty, but compact must still rewrite the DAG
        // compactly and shrink the stored record count to the live edges.
        let gen = eng.generation();
        let rep = eng.compact().unwrap();
        assert_eq!(rep.components_reverified, 0);
        assert_eq!(rep.dag_slots_reclaimed, 1);
        assert!(rep.generation > gen, "reclamation is a new generation");
        let idx = SccIndex::open(&e, &path).unwrap();
        assert_eq!(idx.n_dag_edges(), 1, "post-compact DAG holds live edges only");
        assert_eq!(eng.condensation_edges(), vec![CountedEdge::new(0, 4, 1)]);

        // Idempotent: a second compact finds nothing to reclaim and leaves
        // the generation alone.
        let gen = eng.generation();
        let rep = eng.compact().unwrap();
        assert_eq!(rep.dag_slots_reclaimed, 0);
        assert_eq!(eng.generation(), gen);

        // With its tombstone gone, a re-added 0 -> 2 must append a fresh
        // slot — and the engine must keep working across the reclamation.
        eng.apply(&DeltaBatch::new().add(0, 2)).unwrap();
        assert_eq!(
            eng.condensation_edges(),
            vec![CountedEdge::new(0, 2, 1), CountedEdge::new(0, 4, 1)]
        );
        drop(eng);
        assert_eq!(SccIndex::open(&e, &path).unwrap().n_dag_edges(), 2);
    }

    #[test]
    fn intra_removal_marks_dirty_and_queries_lazily_reverify() {
        let e = env();
        // One 3-cycle {0,1,2} and a 2-cycle {3,4} downstream.
        let (g, path) = setup(
            &e,
            "lazy",
            5,
            &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 3), (2, 3)],
        );
        let mut eng = DeltaEngine::open(&e, &g, &path).unwrap();
        let rep = eng.apply(&DeltaBatch::new().remove(2, 0)).unwrap();
        assert_eq!(rep.dirty_marked, 1);
        assert_eq!(eng.n_dirty(), 1);
        assert_eq!(eng.dirty_components(), vec![0]);
        // The stored labels are a coarsening until someone looks.
        let mut idx = SccIndex::open(&e, &path).unwrap();
        assert_eq!(idx.n_sccs(), 2);
        assert_eq!(idx.dirty_components().map(|r| r.unwrap()).collect::<Vec<_>>(), vec![0]);

        // First query on the dirty component re-verifies: 0->1->2 is now a
        // path, three singletons.
        assert_eq!(eng.component_of(1).unwrap(), 1);
        assert_eq!(eng.n_dirty(), 0);
        assert_eq!(eng.n_sccs(), 4);
        assert_eq!(eng.component_of(0).unwrap(), 0);
        assert_eq!(eng.component_of(2).unwrap(), 2);
        assert_eq!(eng.component_size(2).unwrap(), 1);
        assert_eq!(eng.component_size(3).unwrap(), 2);
        // Split comp's outgoing DAG edge re-attributed to singleton {2}.
        assert_eq!(
            eng.condensation_edges(),
            vec![
                CountedEdge::new(0, 1, 1),
                CountedEdge::new(1, 2, 1),
                CountedEdge::new(2, 3, 1),
            ]
        );
        // compact() afterwards is a clean no-op.
        let before = e.stats().snapshot();
        let c = eng.compact().unwrap();
        assert_eq!(c.components_reverified, 0);
        assert_eq!(e.stats().snapshot().since(&before).total_ios(), 0);
        drop(eng);
        let idx = SccIndex::open(&e, &path).unwrap();
        assert_eq!(idx.n_sccs(), 4);
        assert_eq!(idx.n_dirty(), 0);
    }

    #[test]
    fn mixed_stream_matches_a_scratch_rebuild_at_every_step() {
        let e = env();
        let n = 24u64;
        let base: Vec<(u32, u32)> = vec![
            (0, 1), (1, 0), (2, 3), (3, 4), (4, 2), (1, 2), (5, 6),
            (7, 8), (8, 7), (4, 7), (9, 10), (10, 11), (11, 9),
        ];
        let (g, path) = setup(&e, "stream", n, &base);
        let mut eng = DeltaEngine::open(&e, &g, &path).unwrap();
        let mut current = base.clone();
        let mut rng = 0x5eed_c0ffee_u64;
        let mut step_rng = move || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) as u32
        };
        for step in 0..60 {
            // Mostly adds, some removes of a random present edge.
            let remove = step % 4 == 3 && !current.is_empty();
            let batch = if remove {
                let at = step_rng() as usize % current.len();
                let (u, v) = current.swap_remove(at);
                DeltaBatch::new().remove(u, v)
            } else {
                let u = step_rng() % n as u32;
                let v = step_rng() % n as u32;
                current.push((u, v));
                DeltaBatch::new().add(u, v)
            };
            eng.apply(&batch).unwrap();
            let want = scratch(n, &current);
            let got = eng.labels_snapshot().unwrap();
            assert_eq!(got, want, "divergence at step {step} (batch {batch:?})");
            assert!(same_partition(&got, &want));
            // Halfway through: drop the engine and reopen from disk — the
            // journal + header must reconstruct the exact same state.
            if step == 29 {
                drop(eng);
                eng = DeltaEngine::open(&e, &g, &path).unwrap();
            }
        }
        // The artifact must still pass full validation at the end.
        drop(eng);
        SccIndex::open(&e, &path).unwrap();
    }

    #[test]
    fn fault_mid_apply_leaves_previous_generation_readable() {
        let mut faulted = 0;
        for k in [1u64, 2, 4, 6, 8, 10, 12, 16] {
            let e = env();
            let (g, path) = setup(
                &e,
                "crash",
                6,
                &[(0, 1), (1, 0), (2, 3), (3, 2), (1, 2), (4, 5), (5, 4)],
            );
            let mut eng = DeltaEngine::open(&e, &g, &path).unwrap();
            // A cycle-creating merge: the widest write path.
            let batch = DeltaBatch::new().add(3, 0).add(0, 4);
            e.inject_fault_after(k);
            let res = eng.apply(&batch);
            e.clear_fault();
            if let Err(err) = res {
                faulted += 1;
                assert_ne!(err.kind(), io::ErrorKind::InvalidData, "not a corruption");
                // The previous generation is intact and fully validated.
                let mut idx = SccIndex::open(&e, &path).unwrap();
                assert_eq!(idx.generation(), 0);
                assert!(!idx.same_component(0, 3).unwrap());
                drop(idx);
                // The engine was untouched: the same apply simply retries.
                let rep = eng.apply(&batch).unwrap();
                assert_eq!(rep.merges, 1);
            }
            assert!(eng.same_component(0, 3).unwrap());
            assert!(!eng.same_component(0, 4).unwrap());
            drop(eng);
            let mut idx = SccIndex::open(&e, &path).unwrap();
            assert!(idx.same_component(0, 2).unwrap());
        }
        assert!(faulted >= 3, "the sweep must actually hit mid-apply faults");
    }

    #[test]
    fn open_rejects_missing_dag_and_mismatched_geometry() {
        let e = env();
        // No condensation section at all.
        let es = vec![Edge::new(0, 1), Edge::new(1, 0)];
        let f = e.file_from_slice("nodag-edges", &es).unwrap();
        let g = EdgeListGraph::new(f, 2);
        let labs = e
            .file_from_slice(
                "nodag-labs",
                &[crate::types::SccLabel::new(0, 0), crate::types::SccLabel::new(1, 0)],
            )
            .unwrap();
        let path = e.root().join("nodag.sccidx");
        SccIndex::build(&e, &path, &labs, 2, None).unwrap();
        let err = DeltaEngine::open(&e, &g, &path).unwrap_err();
        assert!(
            err.to_string().contains("--with-condensation"),
            "error must name the fix: {err}"
        );

        // Env block size != artifact page size.
        let (g, path) = setup(&e, "geom", 2, &[(0, 1), (1, 0)]);
        let e2 = DiskEnv::new_temp(IoConfig::new(128, 4096)).unwrap();
        let err = DeltaEngine::open(&e2, &g, &path).unwrap_err();
        assert!(err.to_string().contains("block size"), "{err}");

        // Wrong base graph (node count mismatch).
        let (_g4, path4) = setup(&e, "geom4", 4, &[(0, 1), (1, 0), (2, 3)]);
        let err = DeltaEngine::open(&e, &g, &path4).unwrap_err();
        assert!(err.to_string().contains("nodes"), "{err}");
    }

    #[test]
    fn merge_then_dirty_then_reverify_composes() {
        let e = env();
        // {0,1} and {2,3} linked 1->2; merge them, then cut the merged
        // component apart and watch lazy re-verification split it 4 ways.
        let (g, path) = setup(&e, "compose", 4, &[(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)]);
        let mut eng = DeltaEngine::open(&e, &g, &path).unwrap();
        eng.apply(&DeltaBatch::new().add(3, 0)).unwrap();
        assert_eq!(eng.component_of(3).unwrap(), 0);
        // Remove both back-edges inside the merged component.
        let rep = eng
            .apply(&DeltaBatch::new().remove(1, 0).remove(3, 2).remove(3, 0))
            .unwrap();
        assert_eq!(rep.dirty_marked, 1, "one component, marked once");
        let c = eng.compact().unwrap();
        assert_eq!(c.components_reverified, 1);
        assert_eq!(c.components_after, 4);
        // 0->1->2->3 is now a simple path: all singletons.
        for v in 0..4u32 {
            assert_eq!(eng.component_of(v).unwrap(), v);
        }
        assert_eq!(
            eng.condensation_edges(),
            vec![
                CountedEdge::new(0, 1, 1),
                CountedEdge::new(1, 2, 1),
                CountedEdge::new(2, 3, 1),
            ]
        );
        drop(eng);
        let idx = SccIndex::open(&e, &path).unwrap();
        assert_eq!(idx.n_sccs(), 4);
    }
}
