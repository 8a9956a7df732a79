//! `SccIndex` — the persistent, queryable product of an SCC computation.
//!
//! Computing SCCs externally is expensive; the answers it yields — "which
//! component is `u` in", "are `u` and `v` strongly connected", "how big is
//! `u`'s component" — are cheap *if* the labeling is kept in a shape built
//! for point queries. This module materializes exactly that: a versioned,
//! checksummed on-disk artifact holding the node→representative mapping in
//! block-aligned pages, a component-size table indexed by node id, and
//! (optionally) the condensation DAG's edge list.
//!
//! Everything is written and read through the environment's pager
//! ([`CountedFile`]), so index I/O is priced in the same **logical**
//! [`IoStats`](ce_extmem::IoStats) model as the algorithms themselves and
//! benefits from the buffer pool physically. The artifact is always backed
//! by a real on-disk file (even under in-memory environments — see
//! [`CountedFile::create_persistent`]), so it survives the environment that
//! built it and reopens in `O(1)` memory beyond the delta log's page
//! images: [`SccIndex::open`] reads the header, replays the log and
//! streams a checksum pass, after which every query touches a
//! bounded number of blocks — [`component_of`](SccIndex::component_of) one,
//! [`same_component`](SccIndex::same_component) at most two (zero when
//! `u == v`, one when both labels share a page),
//! [`component_size`](SccIndex::component_size) two (the label, then the
//! representative's size entry), and the batched
//! [`component_of_many`](SccIndex::component_of_many) one read per
//! *distinct* label page in the batch.
//!
//! ## Concurrent reads
//!
//! [`SccIndex`] owns its environment's pager and takes `&mut self` — one
//! reader. [`SccIndexReader`] ([`SccIndex::open_shared`]) is the serving
//! handle: cloneable, `Send + Sync`, queries take `&self`, and all clones
//! share one read-only `SharedPager` block pool (via
//! [`ce_extmem::SharedFile`]) so a hot label page faulted by
//! one thread is a cache hit for every other.
//! Logical I/O stays per-handle (fresh counters per clone), so a query's
//! [`IoSnapshot`](ce_extmem::IoSnapshot) is bit-identical to the owned
//! path no matter how many readers run concurrently — both handles answer
//! through the same query and validation code over one block-read seam.
//!
//! ## On-disk layout (version 3, all integers little-endian)
//!
//! ```text
//! page 0         header: magic "CESI", version, page size, counts,
//!                section offsets, generation, checksums, header checksum
//! labels_off     rep[u]: u32 per node, node order, page-padded
//! sizes_off      size[u]: u64 per node, node order, page-padded — the size
//!                of the component whose representative is `u`, 0 when `u`
//!                represents no component
//! dag_off        condensation edges (src: u32, dst: u32, count: u32),
//!                page-padded (absent when dag_off == 0); `count` is the
//!                number of base-graph edge instances crossing the
//!                component pair. Builds write the records sorted by
//!                (src, dst); delta generations patch records in place
//!                (a record whose count drops to 0 stays as a tombstone,
//!                reused if its edge comes back) and append new ones past
//!                the last record; only a compact (or a re-verification
//!                that would leave tombstones) rewrites the section into
//!                sorted form
//! dirty_off      dirty component representatives (u32, ascending),
//!                page-padded — components whose partition must be
//!                re-verified by the delta engine before it is exact
//! ```
//!
//! The page size is the building environment's block size, so sections are
//! block-aligned for the device that wrote them. Both the labels and the
//! size table have one fixed-width entry per node, so their lengths — and
//! with them `dag_off` — never change over the artifact's life.
//!
//! ## Generations and the format versions
//!
//! Version 1 was write-once: one monolithic payload checksum over every
//! byte of the file, recomputable only by streaming the whole artifact.
//! Version 2 added the *write-after-build* path of the delta engine
//! ([`crate::delta`]). Version 3 replaced its size table — `(rep, size)`
//! records sorted by representative, rewritten whole whenever components
//! merged or split — with the node-indexed one above, so a merge patches
//! only the size entries of the components it changes and `component_size`
//! is two point reads instead of a binary search. Artifacts of either
//! earlier version are rejected at open with a "rebuild" error. The format
//! properties that make localized updates possible:
//!
//! * **Generation counter** (header word 13). Every successful
//!   [`delta::DeltaEngine::apply`](crate::delta::DeltaEngine::apply) or
//!   `compact` commits generation `g + 1` in one of two ways. A commit
//!   that merges no components appends one checksummed record — its
//!   journal operations, the after-images of the DAG and dirty pages it
//!   touched, and the new header — to the **delta log**
//!   `<artifact>.dlog` ([`crate::dlog`]); the record's fsync is the commit
//!   point and the artifact file is not touched. Merges, re-verification,
//!   `compact`, and any commit made once the log's commit records hold
//!   more bytes than the artifact **fold** instead: they write a complete
//!   new artifact *file* (fork the current generation, patch the touched
//!   pages, bump the generation, atomically `rename(2)` over the old path)
//!   and then rename a fresh log holding only the journal over the old
//!   one. [`SccIndex::generation`] exposes the counter.
//! * **Per-page checksums for the labels, sizes and DAG sections.** Each is
//!   covered by the XOR over its pages of `FNV-1a(page_index ‖ page
//!   bytes)` (`labels_xor`, `sizes_xor`, `dag_xor`; whole pages, padding
//!   included). Patching one page updates the checksum in `O(1)` (XOR the
//!   old page's hash out, the new page's hash in) instead of re-streaming
//!   the section — this is what lets a component merge rewrite *only* the
//!   label pages owning affected nodes and the size pages of the
//!   representatives it changes, and what keeps a metadata-only edge
//!   insert, which reinforces, weakens or appends one DAG record, at `O(1)`
//!   page writes. Open-time validation hashes these pages four at a time,
//!   as four independent FNV-1a chains, with digests identical to the
//!   serial hash.
//! * **A record checksum for the dirty section.** It is small and
//!   rewritten whole when it changes, so it carries a plain running FNV-1a
//!   over *record* bytes (`dirty_fnv`); its page padding is excluded (it
//!   can never influence an answer).
//!
//! The header additionally records the count and running checksum of the
//! **journal** (`n_journal`, `journal_fnv`): every delta operation since
//! the build, which the delta engine needs to reconstruct the current edge
//! multiset when it re-verifies a dirty component. The operations live in
//! the log's records; a fold's fresh log opens with a checkpoint record
//! holding all of them.
//!
//! ## Opening a generation
//!
//! Every open — [`SccIndex::open`], [`SccIndex::open_shared`] and the
//! delta engine's — runs the same protocol: open the log first (a fold
//! may rename it away; whatever the handle holds either chains to the
//! artifact opened next or is stale), read and check the artifact's
//! header, replay the log's valid prefix (each record must name the header
//! before it by its checksum word, and every page image must match the
//! record's page hash; a torn last record is ignored, a bad record with
//! complete records after it is `InvalidData`, and a log whose first
//! record does not chain to the artifact is stale and ignored), then
//! validate the geometry, length and every section checksum of the
//! resulting generation over the artifact with the log's page images laid
//! over it. Images only ever cover DAG and dirty pages, so every query —
//! labels and sizes — reads the artifact directly; only the DAG and dirty
//! iterators look at the overlay. The log is read raw, outside the logical
//! I/O pricing, so owned and shared opens still price identically.
//!
//! A flipped byte in the header, any page of the labels / sizes / DAG
//! sections, or any record of the dirty section is rejected at
//! [`SccIndex::open`] with a checksum or geometry error instead of
//! producing garbage.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ce_extmem::file::CountedFile;
use ce_extmem::{sort_streaming_by_key, DiskEnv, ExtFile, SharedFile, SortedStream};

use crate::dlog::{self, Overlay, Replay};
use crate::types::{CountedEdge, Edge, NodeId, SccLabel};

/// Magic bytes of the index format.
const MAGIC: &[u8; 4] = b"CESI";
/// Current format version (3: the node-indexed size table; see the module
/// docs for what changed relative to versions 1 and 2).
const VERSION: u32 = 3;
/// Serialized header length in bytes (the rest of page 0 is zero padding).
pub(crate) const HEADER_LEN: usize = 144;
/// Bytes per entry of the node-indexed component-size table.
pub(crate) const SIZE_ENTRY: u64 = 8;
/// Bytes per stored condensation edge (src, dst, count).
pub(crate) const DAG_ENTRY: u64 = 12;
/// Bytes per dirty-component entry (one representative id).
pub(crate) const DIRTY_ENTRY: u64 = 4;
/// Bytes per journal operation (tag, src, dst).
pub(crate) const JOURNAL_ENTRY: u64 = 12;
/// Geometry sanity bounds enforced at open (see [`open_checked`]).
const MAX_PAGE: u64 = 1 << 31;
const MAX_NODES: u64 = (u32::MAX as u64) + 1;
const MAX_DAG_EDGES: u64 = 1 << 40;

/// FNV-1a 64-bit, the workspace's dependency-free checksum. The state *is*
/// the digest (no finalization), which the format exploits: a stored
/// running checksum (the journal's) can be resumed to cover appended
/// records.
#[derive(Clone, Copy)]
pub(crate) struct Fnv(pub(crate) u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    /// Resumes from a stored running state.
    pub(crate) fn from_state(state: u64) -> Fnv {
        Fnv(state)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// Hash of one page of a page-hashed section (labels, sizes, DAG): FNV-1a
/// over the section-relative page index followed by the full page bytes
/// (padding included). A section's checksum is the XOR of these over its
/// pages, so patching one page is an `O(1)` checksum update and pages
/// cannot be swapped undetected.
pub(crate) fn page_hash(page_idx: u64, bytes: &[u8]) -> u64 {
    let mut fnv = Fnv::new();
    fnv.update(&page_idx.to_le_bytes());
    fnv.update(bytes);
    fnv.finish()
}

/// [`page_hash`] of every `(page index, page bytes)` pair, in order. Four
/// equal-length pages at a time run as four independent FNV-1a chains in
/// one loop, so each chain's multiply latency overlaps the other three's;
/// every digest is exactly the serial [`page_hash`]. Open-time validation
/// hashes whole sections this way.
pub(crate) fn page_hashes(pages: &[(u64, &[u8])]) -> Vec<u64> {
    let mut out = Vec::with_capacity(pages.len());
    let mut groups = pages.chunks_exact(4);
    for g in &mut groups {
        let len = g[0].1.len();
        if g.iter().any(|(_, b)| b.len() != len) {
            out.extend(g.iter().map(|&(i, b)| page_hash(i, b)));
            continue;
        }
        let step = |h: u64, b: u8| (h ^ b as u64).wrapping_mul(FNV_PRIME);
        let seed = |i: u64| i.to_le_bytes().into_iter().fold(FNV_OFFSET, step);
        let (mut h0, mut h1, mut h2, mut h3) =
            (seed(g[0].0), seed(g[1].0), seed(g[2].0), seed(g[3].0));
        for (((&a, &b), &c), &d) in g[0].1.iter().zip(g[1].1).zip(g[2].1).zip(g[3].1) {
            h0 = step(h0, a);
            h1 = step(h1, b);
            h2 = step(h2, c);
            h3 = step(h3, d);
        }
        out.extend_from_slice(&[h0, h1, h2, h3]);
    }
    out.extend(groups.remainder().iter().map(|&(i, b)| page_hash(i, b)));
    out
}

/// Delta log path: `<artifact>.dlog` next to the artifact.
pub(crate) fn journal_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".dlog");
    path.with_file_name(name)
}

/// Parsed header of an open index.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Header {
    pub(crate) page_size: u64,
    pub(crate) n_nodes: u64,
    pub(crate) n_sccs: u64,
    pub(crate) labels_off: u64,
    pub(crate) sizes_off: u64,
    pub(crate) dag_off: u64,
    pub(crate) n_dag_edges: u64,
    pub(crate) labels_xor: u64,
    pub(crate) sizes_xor: u64,
    pub(crate) dag_xor: u64,
    pub(crate) dirty_off: u64,
    pub(crate) n_dirty: u64,
    pub(crate) dirty_fnv: u64,
    pub(crate) generation: u64,
    pub(crate) n_journal: u64,
    pub(crate) journal_fnv: u64,
}

impl Header {
    pub(crate) fn encode(&self) -> [u8; HEADER_LEN] {
        let mut buf = [0u8; HEADER_LEN];
        buf[0..4].copy_from_slice(MAGIC);
        buf[4..8].copy_from_slice(&VERSION.to_le_bytes());
        for (i, v) in [
            self.page_size,
            self.n_nodes,
            self.n_sccs,
            self.labels_off,
            self.sizes_off,
            self.dag_off,
            self.n_dag_edges,
            self.labels_xor,
            self.sizes_xor,
            self.dag_xor,
            self.dirty_off,
            self.n_dirty,
            self.dirty_fnv,
            self.generation,
            self.n_journal,
            self.journal_fnv,
        ]
        .iter()
        .enumerate()
        {
            buf[8 + 8 * i..16 + 8 * i].copy_from_slice(&v.to_le_bytes());
        }
        let mut fnv = Fnv::new();
        fnv.update(&buf[..HEADER_LEN - 8]);
        buf[HEADER_LEN - 8..].copy_from_slice(&fnv.finish().to_le_bytes());
        buf
    }

    pub(crate) fn decode(buf: &[u8; HEADER_LEN]) -> io::Result<Header> {
        if &buf[0..4] != MAGIC {
            return Err(bad("not an SCC index (bad magic)"));
        }
        let version = u32::from_le_bytes(buf[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(bad(&format!(
                "unsupported index version {version} (this build reads version {VERSION}; \
                 rebuild the artifact with `scc index build`)"
            )));
        }
        let mut fnv = Fnv::new();
        fnv.update(&buf[..HEADER_LEN - 8]);
        let stored = u64::from_le_bytes(buf[HEADER_LEN - 8..].try_into().unwrap());
        if fnv.finish() != stored {
            return Err(bad("header checksum mismatch"));
        }
        let word = |i: usize| u64::from_le_bytes(buf[8 + 8 * i..16 + 8 * i].try_into().unwrap());
        Ok(Header {
            page_size: word(0),
            n_nodes: word(1),
            n_sccs: word(2),
            labels_off: word(3),
            sizes_off: word(4),
            dag_off: word(5),
            n_dag_edges: word(6),
            labels_xor: word(7),
            sizes_xor: word(8),
            dag_xor: word(9),
            dirty_off: word(10),
            n_dirty: word(11),
            dirty_fnv: word(12),
            generation: word(13),
            n_journal: word(14),
            journal_fnv: word(15),
        })
    }

    /// The header's own checksum word: identifies this exact header, so a
    /// delta-log record names the generation it applies on top of.
    pub(crate) fn tag(&self) -> u64 {
        u64::from_le_bytes(self.encode()[HEADER_LEN - 8..].try_into().unwrap())
    }

    /// Total file length implied by the header (every section page-padded).
    pub(crate) fn file_len(&self) -> u64 {
        align_up(self.dirty_off + DIRTY_ENTRY * self.n_dirty, self.page_size)
    }

    /// Number of pages in the labels section.
    pub(crate) fn label_pages(&self) -> u64 {
        (self.sizes_off - self.labels_off) / self.page_size
    }

    /// Number of pages in the size table.
    pub(crate) fn size_pages(&self) -> u64 {
        (align_up(self.sizes_off + SIZE_ENTRY * self.n_nodes, self.page_size) - self.sizes_off)
            / self.page_size
    }

    /// Number of pages in the DAG section (0 when absent).
    pub(crate) fn dag_pages(&self) -> u64 {
        if self.dag_off == 0 {
            return 0;
        }
        (align_up(self.dag_off + DAG_ENTRY * self.n_dag_edges, self.page_size) - self.dag_off)
            / self.page_size
    }
}

pub(crate) fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("scc index: {msg}"))
}

pub(crate) fn align_up(v: u64, page: u64) -> u64 {
    v.div_ceil(page) * page
}

/// What [`SectionWriter::finish`] hands back: the offset just past the
/// padded section and the XOR of per-page hashes (padding included).
struct SectionDigest {
    end: u64,
    xor: u64,
}

/// Section writer: buffers records into page-sized chunks, writes them
/// sequentially through the [`CountedFile`], and maintains the per-page
/// XOR digest of the page-hashed sections.
struct SectionWriter<'a> {
    file: &'a mut CountedFile,
    page: usize,
    start: u64,
    at: u64,
    buf: Vec<u8>,
    xor: u64,
}

impl<'a> SectionWriter<'a> {
    fn new(file: &'a mut CountedFile, page: usize, start: u64) -> Self {
        SectionWriter {
            file,
            page,
            start,
            at: start,
            buf: Vec::with_capacity(page),
            xor: 0,
        }
    }

    fn push(&mut self, bytes: &[u8]) -> io::Result<()> {
        debug_assert!(bytes.len() <= self.page, "records never span two flushes");
        self.buf.extend_from_slice(bytes);
        while self.buf.len() >= self.page {
            let page_idx = (self.at - self.start) / self.page as u64;
            self.file.write_at(self.at, &self.buf[..self.page])?;
            self.xor ^= page_hash(page_idx, &self.buf[..self.page]);
            self.at += self.page as u64;
            self.buf.drain(..self.page);
        }
        Ok(())
    }

    /// Pads the tail to a page boundary and flushes it.
    fn finish(mut self) -> io::Result<SectionDigest> {
        if !self.buf.is_empty() {
            self.buf.resize(self.page, 0);
            let page_idx = (self.at - self.start) / self.page as u64;
            self.file.write_at(self.at, &self.buf)?;
            self.xor ^= page_hash(page_idx, &self.buf);
            self.at += self.page as u64;
        }
        Ok(SectionDigest {
            end: self.at,
            xor: self.xor,
        })
    }
}

/// The block-read seam both index handles answer through: the owned
/// [`SccIndex`] reads via its environment's [`CountedFile`], the concurrent
/// [`SccIndexReader`] via a [`SharedFile`] clone. Everything above this
/// trait — open-time validation, every query, every section iterator — is
/// written once against it, so the two paths cannot drift in answers *or*
/// in logical I/O pricing.
pub(crate) trait IndexIo {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize>;
    fn len_bytes(&self) -> io::Result<u64>;
}

impl IndexIo for CountedFile {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        CountedFile::read_at(self, offset, buf)
    }

    fn len_bytes(&self) -> io::Result<u64> {
        CountedFile::len_bytes(self)
    }
}

impl<T: IndexIo + ?Sized> IndexIo for &mut T {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        (**self).read_at(offset, buf)
    }

    fn len_bytes(&self) -> io::Result<u64> {
        (**self).len_bytes()
    }
}

/// Adapter giving a `&SharedFile` the `&mut`-shaped seam (its reads are
/// interior-mutable already).
pub(crate) struct SharedIo<'a>(pub(crate) &'a SharedFile);

impl IndexIo for SharedIo<'_> {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        self.0.read_at(offset, buf)
    }

    fn len_bytes(&self) -> io::Result<u64> {
        Ok(self.0.len_bytes())
    }
}

/// The artifact as the current generation sees it: the base file with the
/// delta log's page images laid over it (see [`crate::dlog`]). Only DAG and
/// dirty-section pages are ever overlaid, so label and size reads — every
/// query — go straight to the base handle; with an empty overlay every read
/// does, priced exactly as without this wrapper. A read that crosses pages
/// serves overlaid pages from memory and coalesces each run of base pages
/// into one base read.
pub(crate) struct OverlayIo<'a> {
    base: Box<dyn IndexIo + 'a>,
    overlay: &'a Overlay,
    page: u64,
}

impl<'a> OverlayIo<'a> {
    pub(crate) fn new(base: impl IndexIo + 'a, overlay: &'a Overlay, page: u64) -> OverlayIo<'a> {
        OverlayIo {
            base: Box::new(base),
            overlay,
            page,
        }
    }
}

impl IndexIo for OverlayIo<'_> {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        if self.overlay.is_empty() {
            return self.base.read_at(offset, buf);
        }
        let len = self.len_bytes()?;
        if offset >= len {
            return Ok(0);
        }
        let n = (buf.len() as u64).min(len - offset) as usize;
        let mut run: Option<usize> = None; // start of a pending base run
        let mut done = 0usize;
        while done < n {
            let pos = offset + done as u64;
            let start = pos - pos % self.page;
            let intra = (pos - start) as usize;
            let take = (self.page as usize - intra).min(n - done);
            if let Some(img) = self.overlay.get(start) {
                if let Some(r) = run.take() {
                    let got = self.base.read_at(offset + r as u64, &mut buf[r..done])?;
                    if got < done - r {
                        return Ok(r + got);
                    }
                }
                buf[done..done + take].copy_from_slice(&img[intra..intra + take]);
            } else if run.is_none() {
                run = Some(done);
            }
            done += take;
        }
        if let Some(r) = run {
            let got = self.base.read_at(offset + r as u64, &mut buf[r..n])?;
            return Ok(r + got);
        }
        Ok(n)
    }

    fn len_bytes(&self) -> io::Result<u64> {
        Ok(self.base.len_bytes()?.max(self.overlay.end()))
    }
}

/// Reads exactly `buf.len()` bytes at `offset` or fails with a truncation
/// error naming `what`.
pub(crate) fn read_exact_at(
    io: &mut dyn IndexIo,
    offset: u64,
    buf: &mut [u8],
    what: &str,
) -> io::Result<()> {
    if io.read_at(offset, buf)? != buf.len() {
        return Err(bad(&format!("{what} truncated")));
    }
    Ok(())
}

/// Streams `bytes` record bytes from `start` in page-size chunks, folding
/// them into an FNV — the open-time validation pass for the
/// record-checksummed dirty section (padding excluded; see the module
/// docs).
fn stream_fnv(
    io: &mut dyn IndexIo,
    start: u64,
    bytes: u64,
    page: u64,
    what: &str,
) -> io::Result<u64> {
    let mut fnv = Fnv::new();
    let mut chunk = vec![0u8; page as usize];
    let mut at = start;
    let end = start + bytes;
    while at < end {
        let take = ((end - at) as usize).min(chunk.len());
        read_exact_at(io, at, &mut chunk[..take], what)?;
        fnv.update(&chunk[..take]);
        at += take as u64;
    }
    Ok(fnv.finish())
}

/// XOR of [`page_hash`] over `n_pages` whole pages from `off` — the
/// open-time pass for the page-hashed sections (labels, sizes, DAG). Pages are
/// read one counted call each, as a page-by-page scan would, and hashed
/// four at a time ([`page_hashes`]).
fn section_xor(
    io: &mut dyn IndexIo,
    off: u64,
    n_pages: u64,
    page: u64,
    what: &str,
) -> io::Result<u64> {
    let ps = page as usize;
    let mut buf = vec![0u8; 4 * ps];
    let mut xor = 0u64;
    let mut p = 0u64;
    while p < n_pages {
        let k = (n_pages - p).min(4) as usize;
        for (i, chunk) in buf.chunks_exact_mut(ps).take(k).enumerate() {
            read_exact_at(io, off + (p + i as u64) * page, chunk, what)?;
        }
        let items: Vec<(u64, &[u8])> = buf
            .chunks_exact(ps)
            .take(k)
            .enumerate()
            .map(|(i, c)| (p + i as u64, c))
            .collect();
        xor = page_hashes(&items).into_iter().fold(xor, |x, h| x ^ h);
        p += k as u64;
    }
    Ok(xor)
}

/// Magic, version and header checksum, then the geometry bounds.
fn read_header(io: &mut dyn IndexIo) -> io::Result<Header> {
    let mut buf = [0u8; HEADER_LEN];
    if io.read_at(0, &mut buf)? != HEADER_LEN {
        return Err(bad("file too short for a header"));
    }
    let hdr = Header::decode(&buf)?;
    check_geometry(&hdr)?;
    Ok(hdr)
}

fn check_geometry(hdr: &Header) -> io::Result<()> {
    let page = hdr.page_size;
    // Bound every header count before any arithmetic on it: the header
    // checksum is unkeyed, so a hostile file can carry any bytes — the
    // geometry math below must not overflow (panic in debug, wrap in
    // release) on fields like `n_nodes = 2^62`. Within these bounds all
    // section arithmetic stays far below u64::MAX.
    if page == 0
        || page > MAX_PAGE
        || hdr.n_nodes > MAX_NODES
        || hdr.n_sccs > hdr.n_nodes
        || hdr.n_dag_edges > MAX_DAG_EDGES
        || hdr.n_dirty > hdr.n_sccs
    {
        return Err(bad("implausible header geometry"));
    }
    let sizes_end = hdr.sizes_off + SIZE_ENTRY * hdr.n_nodes;
    let dirty_expect = if hdr.dag_off != 0 {
        align_up(hdr.dag_off + DAG_ENTRY * hdr.n_dag_edges, page)
    } else {
        align_up(sizes_end, page)
    };
    if hdr.labels_off != align_up(HEADER_LEN as u64, page)
        || hdr.sizes_off != align_up(hdr.labels_off + 4 * hdr.n_nodes, page)
        || (hdr.dag_off == 0 && hdr.n_dag_edges != 0)
        || (hdr.dag_off != 0 && hdr.dag_off != align_up(sizes_end, page))
        || hdr.dirty_off != dirty_expect
    {
        return Err(bad("inconsistent section geometry"));
    }
    Ok(())
}

/// The whole open-time protocol, shared verbatim by [`SccIndex::open`],
/// [`SccIndex::open_shared`] and the delta engine's open, so every handle
/// rejects exactly the same corruptions at exactly the same logical I/O
/// cost and lands on the same generation: read and check the base header,
/// replay the valid prefix of the delta log (`log`, read by the caller;
/// see [`crate::dlog`]), then validate the current generation's geometry,
/// length and every section checksum over the base file with the log's
/// page images laid over it.
pub(crate) fn open_checked(io: &mut dyn IndexIo, log: Option<&[u8]>) -> io::Result<Replay> {
    let base = read_header(io)?;
    let replay = match log {
        Some(bytes) => dlog::replay(base, bytes)?,
        None => Replay::empty(base),
    };
    check_geometry(&replay.hdr)?;
    validate(
        &mut OverlayIo::new(io, &replay.overlay, replay.hdr.page_size),
        &replay.hdr,
    )?;
    Ok(replay)
}

/// Length and every section checksum of the generation `hdr` describes.
fn validate(io: &mut dyn IndexIo, hdr: &Header) -> io::Result<()> {
    let page = hdr.page_size;
    let want_len = hdr.file_len();
    if io.len_bytes()? != want_len {
        return Err(bad(&format!(
            "file is {} bytes, header implies {want_len}",
            io.len_bytes()?
        )));
    }
    // Page-hashed sections: XOR of per-page hashes (whole pages, padding
    // included) — the delta engine patches them in place.
    if section_xor(
        io,
        hdr.labels_off,
        hdr.label_pages(),
        page,
        "labels section",
    )? != hdr.labels_xor
    {
        return Err(bad("labels checksum mismatch"));
    }
    if section_xor(io, hdr.sizes_off, hdr.size_pages(), page, "size table")? != hdr.sizes_xor {
        return Err(bad("size table checksum mismatch"));
    }
    if hdr.dag_off != 0
        && section_xor(io, hdr.dag_off, hdr.dag_pages(), page, "dag section")? != hdr.dag_xor
    {
        return Err(bad("dag section checksum mismatch"));
    }
    // The record-checksummed dirty section.
    if stream_fnv(io, hdr.dirty_off, DIRTY_ENTRY * hdr.n_dirty, page, "dirty section")?
        != hdr.dirty_fnv
    {
        return Err(bad("dirty section checksum mismatch"));
    }
    Ok(())
}

pub(crate) fn check_node(hdr: &Header, u: NodeId) -> io::Result<()> {
    if u as u64 >= hdr.n_nodes {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("node {u} out of range (index covers {} nodes)", hdr.n_nodes),
        ));
    }
    Ok(())
}

/// `component_of`: one 4-byte read, one logical block.
pub(crate) fn lookup_rep(io: &mut dyn IndexIo, hdr: &Header, u: NodeId) -> io::Result<NodeId> {
    check_node(hdr, u)?;
    let mut buf = [0u8; 4];
    read_exact_at(io, hdr.labels_off + 4 * u as u64, &mut buf, "labels section")?;
    Ok(NodeId::from_le_bytes(buf))
}

/// Label page (block of the labels section) holding node `u`'s entry.
pub(crate) fn label_page(hdr: &Header, u: NodeId) -> u64 {
    (4 * u as u64) / hdr.page_size
}

/// `same_component`: zero reads for `u == v`, one page read when both
/// labels live on the same page, two 4-byte reads otherwise.
fn lookup_same(io: &mut dyn IndexIo, hdr: &Header, u: NodeId, v: NodeId) -> io::Result<bool> {
    check_node(hdr, u)?;
    if u == v {
        return Ok(true);
    }
    check_node(hdr, v)?;
    if label_page(hdr, u) == label_page(hdr, v) {
        let mut page = vec![0u8; hdr.page_size as usize];
        let off = hdr.labels_off + label_page(hdr, u) * hdr.page_size;
        read_exact_at(io, off, &mut page, "labels section")?;
        let slot = |x: NodeId| ((4 * x as u64) % hdr.page_size) as usize;
        let rep = |at: usize| NodeId::from_le_bytes(page[at..at + 4].try_into().unwrap());
        return Ok(rep(slot(u)) == rep(slot(v)));
    }
    Ok(lookup_rep(io, hdr, u)? == lookup_rep(io, hdr, v)?)
}

/// Batched `component_of`: bounds-checks everything up front (no I/O is
/// spent on a batch that fails), then answers in ascending node order so
/// the `k` queries that land on one label page cost exactly one page read.
/// Results come back in input order.
pub(crate) fn lookup_many(
    io: &mut dyn IndexIo,
    hdr: &Header,
    nodes: &[NodeId],
) -> io::Result<Vec<NodeId>> {
    for &u in nodes {
        check_node(hdr, u)?;
    }
    let mut order: Vec<u32> = (0..nodes.len() as u32).collect();
    order.sort_unstable_by_key(|&i| nodes[i as usize]);
    let mut out = vec![0 as NodeId; nodes.len()];
    let mut page = vec![0u8; hdr.page_size as usize];
    let mut loaded = u64::MAX;
    for &i in &order {
        let u = nodes[i as usize];
        let p = label_page(hdr, u);
        if p != loaded {
            read_exact_at(io, hdr.labels_off + p * hdr.page_size, &mut page, "labels section")?;
            loaded = p;
        }
        let at = ((4 * u as u64) % hdr.page_size) as usize;
        out[i as usize] = NodeId::from_le_bytes(page[at..at + 4].try_into().unwrap());
    }
    Ok(out)
}

/// The stored size of the component represented by `rep` — one 8-byte
/// read; 0 when `rep` represents no component.
pub(crate) fn read_size(io: &mut dyn IndexIo, hdr: &Header, rep: NodeId) -> io::Result<u64> {
    if rep as u64 >= hdr.n_nodes {
        return Err(bad(&format!("representative {rep} outside the size table")));
    }
    let mut buf = [0u8; SIZE_ENTRY as usize];
    read_exact_at(io, hdr.sizes_off + SIZE_ENTRY * rep as u64, &mut buf, "size table")?;
    Ok(u64::from_le_bytes(buf))
}

/// `component_size`: one label read plus one read of the representative's
/// size entry.
pub(crate) fn lookup_size(io: &mut dyn IndexIo, hdr: &Header, u: NodeId) -> io::Result<u64> {
    let rep = lookup_rep(io, hdr, u)?;
    match read_size(io, hdr, rep)? {
        0 => Err(bad(&format!("representative {rep} missing from the size table"))),
        size => Ok(size),
    }
}

/// Sniffs the page size of an artifact with one raw, **uncounted** header
/// peek (magic, version and header checksum are validated; nothing else
/// is). Callers that must match an environment's block size to an existing
/// artifact — `scc index apply` / `scc index compact` — use this before
/// constructing the environment.
pub fn sniff_page_size(path: &Path) -> io::Result<u64> {
    Ok(read_raw_header(path)?.page_size)
}

/// The artifact's header from one raw, uncounted read: magic, version,
/// header checksum and a plausible page size are checked, nothing else.
pub(crate) fn read_raw_header(path: &Path) -> io::Result<Header> {
    let mut raw = [0u8; HEADER_LEN];
    {
        use std::io::Read as _;
        let mut f = std::fs::File::open(path)?;
        let mut done = 0;
        while done < HEADER_LEN {
            match f.read(&mut raw[done..]) {
                Ok(0) => return Err(bad("file too short for a header")),
                Ok(k) => done += k,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
    let hdr = Header::decode(&raw)?;
    if hdr.page_size == 0 || hdr.page_size > MAX_PAGE {
        return Err(bad("implausible header geometry"));
    }
    Ok(hdr)
}

/// A reopened SCC index. See the module docs for the format and the I/O
/// cost of each query; all queries are counted in the owning environment's
/// logical [`IoStats`](ce_extmem::IoStats).
pub struct SccIndex {
    file: CountedFile,
    hdr: Header,
    overlay: Overlay,
}

impl std::fmt::Debug for SccIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SccIndex")
            .field("n_nodes", &self.hdr.n_nodes)
            .field("n_sccs", &self.hdr.n_sccs)
            .field("n_dag_edges", &self.hdr.n_dag_edges)
            .field("page_size", &self.hdr.page_size)
            .field("generation", &self.hdr.generation)
            .finish()
    }
}

impl SccIndex {
    /// Builds the on-disk artifact at `path` from a dense node-sorted label
    /// file (the canonical output of every [`crate::algo::SccAlgorithm`])
    /// and, optionally, a counted condensation DAG edge file (as produced
    /// by [`crate::labels::condense_counted`]). Returns the number of
    /// distinct components written. The artifact starts at generation 0
    /// with empty dirty and journal sections.
    ///
    /// The file at `path` is created on the real filesystem regardless of
    /// the environment's backend, truncating any previous artifact (and any
    /// stale delta log next to it); all bytes flow through the
    /// environment's pager and logical I/O counters. One external sort of
    /// the label file (by representative) derives the component-size table;
    /// a representative outside `0..n_nodes` is rejected.
    pub fn build(
        env: &DiskEnv,
        path: &Path,
        labels: &ExtFile<SccLabel>,
        n_nodes: u64,
        dag: Option<&ExtFile<CountedEdge>>,
    ) -> io::Result<u64> {
        if labels.len() != n_nodes {
            return Err(bad(&format!(
                "label file covers {} nodes, graph has {n_nodes}",
                labels.len()
            )));
        }
        let _sp = ce_extmem::io_span!(env, "index_build", nodes = n_nodes);
        let page = env.config().block_size as u64;
        let mut file = CountedFile::create_persistent(env, path)?;

        // Section 1: node -> representative, u32 per node in node order.
        // (Page-aligned; multiple header pages when the block size is
        // smaller than the header.)
        let labels_off = align_up(HEADER_LEN as u64, page);
        let mut w = SectionWriter::new(&mut file, page as usize, labels_off);
        let mut r = labels.reader()?;
        let mut expected = 0u64;
        while let Some(l) = r.next()? {
            if l.node as u64 != expected {
                return Err(bad(&format!("label file not dense/sorted at node {}", l.node)));
            }
            w.push(&l.scc.to_le_bytes())?;
            expected += 1;
        }
        let labels_digest = w.finish()?;
        let sizes_off = labels_digest.end;

        // Section 2: size[u] per node, 0 unless `u` is a representative —
        // the external sort of the labels by rep streams its final merge
        // straight into a run-length scan that writes the table in node
        // order (no by-rep file is written).
        let mut by_rep = sort_streaming_by_key(env, labels, "idx-by-rep", |l: &SccLabel| l.scc)?
            .into_stream()?;
        let mut w = SectionWriter::new(&mut file, page as usize, sizes_off);
        let mut n_sccs = 0u64;
        // Next node whose entry is unwritten.
        let mut next = 0u64;
        let mut entry = |w: &mut SectionWriter<'_>, rep: NodeId, size: u64| -> io::Result<()> {
            for _ in next..rep as u64 {
                w.push(&0u64.to_le_bytes())?;
            }
            w.push(&size.to_le_bytes())?;
            next = rep as u64 + 1;
            n_sccs += 1;
            Ok(())
        };
        let mut current: Option<(NodeId, u64)> = None;
        while let Some(l) = by_rep.next()? {
            if l.scc as u64 >= n_nodes {
                return Err(bad(&format!(
                    "label of node {} names representative {} outside 0..{n_nodes}",
                    l.node, l.scc
                )));
            }
            match current {
                Some((rep, size)) if rep == l.scc => current = Some((rep, size + 1)),
                Some((rep, size)) => {
                    entry(&mut w, rep, size)?;
                    current = Some((l.scc, 1));
                }
                None => current = Some((l.scc, 1)),
            }
        }
        if let Some((rep, size)) = current {
            entry(&mut w, rep, size)?;
        }
        for _ in next..n_nodes {
            w.push(&0u64.to_le_bytes())?;
        }
        let sizes_digest = w.finish()?;

        // Section 3 (optional): counted condensation DAG edges.
        let (dag_off, n_dag_edges, dag_xor, after_dag) = match dag {
            Some(edges) => {
                let mut w = SectionWriter::new(&mut file, page as usize, sizes_digest.end);
                let mut r = edges.reader()?;
                while let Some(e) = r.next()? {
                    let mut buf = [0u8; DAG_ENTRY as usize];
                    buf[0..4].copy_from_slice(&e.src.to_le_bytes());
                    buf[4..8].copy_from_slice(&e.dst.to_le_bytes());
                    buf[8..12].copy_from_slice(&e.count.to_le_bytes());
                    w.push(&buf)?;
                }
                let d = w.finish()?;
                (sizes_digest.end, edges.len(), d.xor, d.end)
            }
            None => (0, 0, 0, sizes_digest.end),
        };

        // Section 4: dirty components — empty at build.
        let dirty_off = after_dag;

        // Header last, now that every digest is known.
        let hdr = Header {
            page_size: page,
            n_nodes,
            n_sccs,
            labels_off,
            sizes_off,
            dag_off,
            n_dag_edges,
            labels_xor: labels_digest.xor,
            sizes_xor: sizes_digest.xor,
            dag_xor,
            dirty_off,
            n_dirty: 0,
            dirty_fnv: Fnv::new().finish(),
            generation: 0,
            n_journal: 0,
            journal_fnv: Fnv::new().finish(),
        };
        file.write_at(0, &hdr.encode())?;
        // An all-empty payload leaves the file shorter than the padded
        // header page; extend so the length always matches the header.
        let want = hdr.file_len();
        let have = file.len_bytes()?;
        if have < want {
            file.write_at(have, &vec![0u8; (want - have) as usize])?;
        }
        file.sync()?;
        // A delta log from an earlier artifact at this path (or a fold's
        // unfinished one) would be misattributed to the fresh generation-0
        // index: drop it.
        for log in [journal_path(path), dlog::fold_tmp_path(path)] {
            match std::fs::remove_file(log) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(n_sccs)
    }

    /// Reopens an artifact: reads the header, replays the delta log's
    /// valid prefix (see [`crate::dlog`]; memory for the DAG and dirty
    /// page images it holds, `O(1)` otherwise), validates
    /// magic/version/geometry, and streams one checksum pass over the
    /// payload sections. A file that was truncated, extended or had any
    /// record byte flipped is rejected here with an
    /// [`io::ErrorKind::InvalidData`] checksum/geometry error — corruption
    /// never reaches query answers.
    pub fn open(env: &DiskEnv, path: &Path) -> io::Result<SccIndex> {
        let (file, replay) = Self::open_owned(env, path)?;
        Ok(SccIndex {
            file,
            hdr: replay.hdr,
            overlay: replay.overlay,
        })
    }

    /// The owned open protocol, also the delta engine's: the artifact
    /// handle plus everything the log replay produced.
    pub(crate) fn open_owned(env: &DiskEnv, path: &Path) -> io::Result<(CountedFile, Replay)> {
        let _sp = ce_extmem::io_span!(env, "index_open");
        // The log first: its handle pins the log a fold may rename away, so
        // its records either chain to the artifact opened next or are stale.
        let log = dlog::open_log(path)?;
        let mut file = CountedFile::open_read(env, path)?;
        let bytes = dlog::read_log(log)?;
        let replay = open_checked(&mut file, bytes.as_deref())?;
        Ok((file, replay))
    }

    /// Opens the artifact for **concurrent** reads: returns a cloneable
    /// [`SccIndexReader`] whose queries take `&self` and whose clones share
    /// one read-only block pool of `cache_blocks` frames (0 = no caching).
    /// Performs the same validation protocol as [`SccIndex::open`] — header,
    /// geometry, every section checksum — at the same logical I/O cost,
    /// counted in the reader's own per-handle stats.
    ///
    /// The reader is independent of any [`DiskEnv`]: it prices its logical
    /// I/O in per-handle counters ([`SccIndexReader::stats`]) instead of an
    /// environment's, which is what keeps per-query costs deterministic
    /// under concurrency.
    pub fn open_shared(path: &Path, cache_blocks: usize) -> io::Result<SccIndexReader> {
        SccIndexReader::open(path, cache_blocks)
    }

    /// Number of nodes the index covers (the universe `0..n_nodes`).
    pub fn n_nodes(&self) -> u64 {
        self.hdr.n_nodes
    }

    /// Number of distinct strongly connected components.
    pub fn n_sccs(&self) -> u64 {
        self.hdr.n_sccs
    }

    /// True if the artifact embeds the condensation DAG.
    pub fn has_condensation(&self) -> bool {
        self.hdr.dag_off != 0
    }

    /// Number of condensation edges stored (0 when absent).
    pub fn n_dag_edges(&self) -> u64 {
        self.hdr.n_dag_edges
    }

    /// Page size the artifact was built with (the builder's block size).
    pub fn page_size(&self) -> u64 {
        self.hdr.page_size
    }

    /// Index generation: 0 at build, bumped by every delta engine update
    /// that replaced the artifact (see the module docs).
    pub fn generation(&self) -> u64 {
        self.hdr.generation
    }

    /// Number of dirty components awaiting delta-engine re-verification.
    pub fn n_dirty(&self) -> u64 {
        self.hdr.n_dirty
    }

    /// Total artifact size in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.hdr.file_len()
    }

    /// The representative of `u`'s component — one block read.
    pub fn component_of(&mut self, u: NodeId) -> io::Result<NodeId> {
        lookup_rep(&mut self.file, &self.hdr, u)
    }

    /// Representatives for a whole batch, in input order — one block read
    /// per **distinct** label page the batch touches (the batch is answered
    /// in ascending node order so same-page probes coalesce). Everything is
    /// bounds-checked before any I/O is spent.
    pub fn component_of_many(&mut self, nodes: &[NodeId]) -> io::Result<Vec<NodeId>> {
        lookup_many(&mut self.file, &self.hdr, nodes)
    }

    /// True iff `u` and `v` are strongly connected — at most two block
    /// reads, no recomputation: zero reads when `u == v` (one bounds
    /// check answers it), one when both labels live on the same page.
    pub fn same_component(&mut self, u: NodeId, v: NodeId) -> io::Result<bool> {
        lookup_same(&mut self.file, &self.hdr, u, v)
    }

    /// Size of `u`'s component — two block reads: `u`'s label, then the
    /// representative's entry in the node-indexed size table.
    pub fn component_size(&mut self, u: NodeId) -> io::Result<u64> {
        lookup_size(&mut self.file, &self.hdr, u)
    }

    /// Streams `(representative, size)` for every component, ascending by
    /// representative — one sequential scan of the size table,
    /// `O(n_nodes / B)` block reads.
    pub fn components(&mut self) -> ComponentsIter<'_> {
        let hdr = self.hdr;
        ComponentsIter::new(Box::new(&mut self.file), &hdr)
    }

    /// Streams the stored condensation DAG edges (component representatives
    /// as endpoints, multiplicities dropped). Empty when the artifact was
    /// built without a DAG; check [`SccIndex::has_condensation`] to
    /// distinguish.
    pub fn condensation_edges(&mut self) -> DagEdgesIter<'_> {
        let hdr = self.hdr;
        DagEdgesIter {
            cursor: dag_cursor(
                Box::new(OverlayIo::new(&mut self.file, &self.overlay, hdr.page_size)),
                &hdr,
            ),
        }
    }

    /// Streams the representatives of dirty components (ascending) — the
    /// components whose labels are a conservative coarsening until the
    /// delta engine re-verifies them.
    pub fn dirty_components(&mut self) -> DirtyIter<'_> {
        let hdr = self.hdr;
        DirtyIter {
            cursor: SectionCursor::new(
                Box::new(OverlayIo::new(&mut self.file, &self.overlay, hdr.page_size)),
                hdr.page_size,
                hdr.dirty_off,
                DIRTY_ENTRY,
                hdr.n_dirty,
            ),
        }
    }
}

fn dag_cursor<'a>(io: Box<dyn IndexIo + 'a>, hdr: &Header) -> SectionCursor<'a> {
    let total = if hdr.dag_off == 0 { 0 } else { hdr.n_dag_edges };
    SectionCursor::new(io, hdr.page_size, hdr.dag_off, DAG_ENTRY, total)
}

/// The concurrent query handle over one open artifact — the serving
/// counterpart of [`SccIndex`]. Obtained from [`SccIndex::open_shared`];
/// `Send + Sync`, queries take `&self`.
///
/// Cloning is the unit of concurrency: every clone shares the same
/// read-only block pool (one hot page, cached once, hit by all threads;
/// physical counters aggregated atomically, [`SccIndexReader::phys`]) but
/// carries **fresh per-handle logical counters and sequential/random
/// cursor** ([`SccIndexReader::stats`]), so per-query logical I/O is
/// bit-identical to the owned [`SccIndex`] path regardless of what other
/// readers are doing. Hand one clone to each worker thread.
#[derive(Clone)]
pub struct SccIndexReader {
    file: SharedFile,
    hdr: Header,
    overlay: Arc<Overlay>,
}

impl std::fmt::Debug for SccIndexReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SccIndexReader")
            .field("n_nodes", &self.hdr.n_nodes)
            .field("n_sccs", &self.hdr.n_sccs)
            .field("n_dag_edges", &self.hdr.n_dag_edges)
            .field("page_size", &self.hdr.page_size)
            .field("generation", &self.hdr.generation)
            .finish()
    }
}

impl SccIndexReader {
    /// See [`SccIndex::open_shared`].
    fn open(path: &Path, cache_blocks: usize) -> io::Result<SccIndexReader> {
        // Sniff the page size with one raw, *uncounted* header peek: the
        // shared pool's block size must equal the artifact's page size
        // before the first counted read, or the logical pricing would
        // diverge from the owned path (whose environment knows the block
        // size a priori).
        // The log handle first, as in `SccIndex::open_owned`.
        let log = dlog::open_log(path)?;
        let page = sniff_page_size(path)?;
        let file = SharedFile::open(path, page as usize, cache_blocks)?;
        let bytes = dlog::read_log(log)?;
        let replay = open_checked(&mut SharedIo(&file), bytes.as_deref())?;
        Ok(SccIndexReader {
            file,
            hdr: replay.hdr,
            overlay: Arc::new(replay.overlay),
        })
    }

    /// Number of nodes the index covers (the universe `0..n_nodes`).
    pub fn n_nodes(&self) -> u64 {
        self.hdr.n_nodes
    }

    /// Number of distinct strongly connected components.
    pub fn n_sccs(&self) -> u64 {
        self.hdr.n_sccs
    }

    /// True if the artifact embeds the condensation DAG.
    pub fn has_condensation(&self) -> bool {
        self.hdr.dag_off != 0
    }

    /// Number of condensation edges stored (0 when absent).
    pub fn n_dag_edges(&self) -> u64 {
        self.hdr.n_dag_edges
    }

    /// Page size the artifact was built with (the builder's block size).
    pub fn page_size(&self) -> u64 {
        self.hdr.page_size
    }

    /// Index generation this handle opened. Clones keep serving this
    /// generation even after a delta update appends a newer one to the log
    /// or renames one over the path — swap in a freshly opened reader to
    /// advance.
    pub fn generation(&self) -> u64 {
        self.hdr.generation
    }

    /// Number of dirty components awaiting delta-engine re-verification.
    pub fn n_dirty(&self) -> u64 {
        self.hdr.n_dirty
    }

    /// Total artifact size in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.hdr.file_len()
    }

    /// This handle's logical I/O counters (zeroed at open/clone) — diff
    /// snapshots around a query for its exact model cost.
    pub fn stats(&self) -> ce_extmem::IoSnapshot {
        self.file.stats()
    }

    /// The shared pool's physical counters, aggregated across all clones.
    pub fn phys(&self) -> ce_extmem::PhysSnapshot {
        self.file.phys()
    }

    /// The representative of `u`'s component — one block read.
    pub fn component_of(&self, u: NodeId) -> io::Result<NodeId> {
        lookup_rep(&mut SharedIo(&self.file), &self.hdr, u)
    }

    /// Batched representatives in input order; see
    /// [`SccIndex::component_of_many`] for the cost contract.
    pub fn component_of_many(&self, nodes: &[NodeId]) -> io::Result<Vec<NodeId>> {
        lookup_many(&mut SharedIo(&self.file), &self.hdr, nodes)
    }

    /// True iff `u` and `v` are strongly connected — at most two block
    /// reads; see [`SccIndex::same_component`].
    pub fn same_component(&self, u: NodeId, v: NodeId) -> io::Result<bool> {
        lookup_same(&mut SharedIo(&self.file), &self.hdr, u, v)
    }

    /// Size of `u`'s component — two block reads; see
    /// [`SccIndex::component_size`].
    pub fn component_size(&self, u: NodeId) -> io::Result<u64> {
        lookup_size(&mut SharedIo(&self.file), &self.hdr, u)
    }

    /// Streams `(representative, size)` for every component — same
    /// contract and logical I/O as [`SccIndex::components`].
    pub fn components(&self) -> ComponentsIter<'_> {
        ComponentsIter::new(Box::new(SharedIo(&self.file)), &self.hdr)
    }

    /// Streams the stored condensation DAG edges — same contract and
    /// logical I/O as [`SccIndex::condensation_edges`] (shared-path parity:
    /// both handles drive the identical cursor over the private I/O seam).
    pub fn condensation_edges(&self) -> DagEdgesIter<'_> {
        DagEdgesIter {
            cursor: dag_cursor(
                Box::new(OverlayIo::new(
                    SharedIo(&self.file),
                    &self.overlay,
                    self.hdr.page_size,
                )),
                &self.hdr,
            ),
        }
    }

    /// Streams the representatives of dirty components (ascending) — same
    /// contract and logical I/O as [`SccIndex::dirty_components`].
    pub fn dirty_components(&self) -> DirtyIter<'_> {
        DirtyIter {
            cursor: SectionCursor::new(
                Box::new(OverlayIo::new(
                    SharedIo(&self.file),
                    &self.overlay,
                    self.hdr.page_size,
                )),
                self.hdr.page_size,
                self.hdr.dirty_off,
                DIRTY_ENTRY,
                self.hdr.n_dirty,
            ),
        }
    }
}

/// Buffered sequential cursor over one fixed-record section, generic over
/// the [`IndexIo`] seam so the owned and shared handles iterate through
/// identical code at identical logical I/O cost.
struct SectionCursor<'a> {
    io: Box<dyn IndexIo + 'a>,
    page_size: u64,
    record: u64,
    start: u64,
    total: u64,
    next: u64,
    buf: Vec<u8>,
    buf_first: u64,
}

impl<'a> SectionCursor<'a> {
    fn new(io: Box<dyn IndexIo + 'a>, page_size: u64, start: u64, record: u64, total: u64) -> Self {
        SectionCursor {
            io,
            page_size,
            record,
            start,
            total,
            next: 0,
            buf: Vec::with_capacity(page_size as usize),
            buf_first: u64::MAX,
        }
    }

    fn next_record(&mut self) -> io::Result<Option<&[u8]>> {
        if self.next >= self.total {
            return Ok(None);
        }
        let per_buf = (self.page_size / self.record).max(1);
        if self.buf_first == u64::MAX || self.next >= self.buf_first + per_buf {
            let first = (self.next / per_buf) * per_buf;
            let want = ((self.total - first).min(per_buf) * self.record) as usize;
            self.buf.resize(want, 0);
            let off = self.start + first * self.record;
            if self.io.read_at(off, &mut self.buf)? != want {
                return Err(bad("section truncated mid-iteration"));
            }
            self.buf_first = first;
        }
        let at = ((self.next - self.buf_first) * self.record) as usize;
        self.next += 1;
        Ok(Some(&self.buf[at..at + self.record as usize]))
    }
}

/// Iterator over `(representative, component size)` pairs: the non-zero
/// entries of the node-indexed size table. See [`SccIndex::components`].
pub struct ComponentsIter<'a> {
    cursor: SectionCursor<'a>,
}

impl<'a> ComponentsIter<'a> {
    fn new(io: Box<dyn IndexIo + 'a>, hdr: &Header) -> Self {
        ComponentsIter {
            cursor: SectionCursor::new(io, hdr.page_size, hdr.sizes_off, SIZE_ENTRY, hdr.n_nodes),
        }
    }
}

impl Iterator for ComponentsIter<'_> {
    type Item = io::Result<(NodeId, u64)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let node = self.cursor.next as NodeId;
            match self.cursor.next_record() {
                Err(e) => return Some(Err(e)),
                Ok(None) => return None,
                Ok(Some(raw)) => match u64::from_le_bytes(raw.try_into().unwrap()) {
                    0 => continue, // not a representative
                    size => return Some(Ok((node, size))),
                },
            }
        }
    }
}

/// Iterator over stored condensation edges. Skips `count == 0` tombstones
/// left by delta-engine deletions and merges (a re-added edge reuses its
/// own tombstone; only a compact, or a re-verification that would leave
/// more, removes them).
/// See [`SccIndex::condensation_edges`].
pub struct DagEdgesIter<'a> {
    cursor: SectionCursor<'a>,
}

impl Iterator for DagEdgesIter<'_> {
    type Item = io::Result<Edge>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            match self.cursor.next_record() {
                Err(e) => return Some(Err(e)),
                Ok(None) => return None,
                Ok(Some(raw)) => {
                    if u32::from_le_bytes(raw[8..12].try_into().unwrap()) == 0 {
                        continue; // tombstone
                    }
                    return Some(Ok(Edge::new(
                        NodeId::from_le_bytes(raw[0..4].try_into().unwrap()),
                        NodeId::from_le_bytes(raw[4..8].try_into().unwrap()),
                    )));
                }
            }
        }
    }
}

/// Iterator over dirty component representatives.
/// See [`SccIndex::dirty_components`].
pub struct DirtyIter<'a> {
    cursor: SectionCursor<'a>,
}

impl Iterator for DirtyIter<'_> {
    type Item = io::Result<NodeId>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.cursor.next_record() {
            Err(e) => Some(Err(e)),
            Ok(None) => None,
            Ok(Some(raw)) => Some(Ok(NodeId::from_le_bytes(raw[0..4].try_into().unwrap()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_extmem::IoConfig;

    fn env() -> DiskEnv {
        DiskEnv::new_temp(IoConfig::new(64, 4096)).unwrap()
    }

    fn idx_path(env: &DiskEnv, name: &str) -> std::path::PathBuf {
        env.root().join(format!("{name}.sccidx"))
    }

    /// Labels for {0,1} ∪ {2} ∪ {3,4,5}: reps 0, 2, 3.
    fn sample_labels(env: &DiskEnv) -> ExtFile<SccLabel> {
        env.file_from_slice(
            "labs",
            &[
                SccLabel::new(0, 0),
                SccLabel::new(1, 0),
                SccLabel::new(2, 2),
                SccLabel::new(3, 3),
                SccLabel::new(4, 3),
                SccLabel::new(5, 3),
            ],
        )
        .unwrap()
    }

    #[test]
    fn four_chain_page_hashes_equal_the_serial_page_hash() {
        // Pages of distinct bytes, including odd lengths; every count from
        // 0 to 9 exercises full groups of four and every remainder.
        for page in [64usize, 100] {
            let bytes: Vec<u8> = (0..9 * page).map(|i| (i * 31 + i / 7) as u8).collect();
            for count in 0..=9usize {
                let items: Vec<(u64, &[u8])> = bytes
                    .chunks_exact(page)
                    .take(count)
                    .enumerate()
                    .map(|(i, c)| (3 + i as u64, c))
                    .collect();
                let serial: Vec<u64> = items.iter().map(|&(i, c)| page_hash(i, c)).collect();
                assert_eq!(page_hashes(&items), serial, "{count} pages of {page} bytes");
            }
        }
        // Unequal lengths within a group fall back to the serial hash.
        let mixed: Vec<(u64, &[u8])> = vec![(0, b"a"), (1, b"bb"), (2, b""), (3, b"dddd")];
        let serial: Vec<u64> = mixed.iter().map(|&(i, c)| page_hash(i, c)).collect();
        assert_eq!(page_hashes(&mixed), serial);
    }

    #[test]
    fn build_open_query_roundtrip() {
        let env = env();
        let labels = sample_labels(&env);
        let path = idx_path(&env, "rt");
        let n_sccs = SccIndex::build(&env, &path, &labels, 6, None).unwrap();
        assert_eq!(n_sccs, 3);

        let mut idx = SccIndex::open(&env, &path).unwrap();
        assert_eq!(idx.n_nodes(), 6);
        assert_eq!(idx.n_sccs(), 3);
        assert_eq!(idx.generation(), 0);
        assert_eq!(idx.n_dirty(), 0);
        assert!(!idx.has_condensation());
        for (v, rep) in [(0, 0), (1, 0), (2, 2), (3, 3), (4, 3), (5, 3)] {
            assert_eq!(idx.component_of(v).unwrap(), rep, "component_of({v})");
        }
        assert!(idx.same_component(3, 5).unwrap());
        assert!(!idx.same_component(1, 2).unwrap());
        assert_eq!(idx.component_size(4).unwrap(), 3);
        assert_eq!(idx.component_size(2).unwrap(), 1);
        let comps: Vec<(u32, u64)> = idx.components().map(|c| c.unwrap()).collect();
        assert_eq!(comps, vec![(0, 2), (2, 1), (3, 3)]);
        assert_eq!(idx.dirty_components().count(), 0);
        assert!(idx.component_of(6).is_err(), "out of range");
    }

    /// Dense labels over 20 nodes: node `v` belongs to component `v / 4`
    /// (reps 0, 4, 8, 12, 16). With 64-byte pages (16 labels each) the
    /// labels span two pages, so cross-page query costs are exercised.
    fn two_page_labels(env: &DiskEnv) -> ExtFile<SccLabel> {
        let labels: Vec<SccLabel> =
            (0u32..20).map(|v| SccLabel::new(v, v / 4 * 4)).collect();
        env.file_from_slice("labs20", &labels).unwrap()
    }

    #[test]
    fn queries_are_counted_and_block_budgeted() {
        let env = env();
        let labels = sample_labels(&env);
        let path = idx_path(&env, "ctr");
        SccIndex::build(&env, &path, &labels, 6, None).unwrap();
        let mut idx = SccIndex::open(&env, &path).unwrap();
        let before = env.stats().snapshot();
        idx.component_of(4).unwrap();
        let one = env.stats().snapshot().since(&before);
        assert_eq!(one.total_ios(), 1, "component_of is one block read");
        // Nodes 0 and 5 share the single 64-byte label page: one read.
        let before = env.stats().snapshot();
        idx.same_component(0, 5).unwrap();
        assert_eq!(env.stats().snapshot().since(&before).total_ios(), 1);
    }

    #[test]
    fn same_component_block_budget_is_zero_one_or_two() {
        let env = env();
        let labels = two_page_labels(&env);
        let path = idx_path(&env, "same");
        SccIndex::build(&env, &path, &labels, 20, None).unwrap();
        let mut idx = SccIndex::open(&env, &path).unwrap();

        // u == v: answered by the bounds check alone, zero reads.
        let before = env.stats().snapshot();
        assert!(idx.same_component(7, 7).unwrap());
        assert_eq!(env.stats().snapshot().since(&before).total_ios(), 0);
        assert!(idx.same_component(19, 19).is_ok());
        assert!(idx.same_component(20, 20).is_err(), "bounds still checked");

        // Same page (both labels in bytes 0..64): one page read.
        let before = env.stats().snapshot();
        assert!(idx.same_component(1, 2).unwrap());
        assert!(!idx.same_component(1, 14).unwrap());
        assert_eq!(env.stats().snapshot().since(&before).total_ios(), 2);

        // Cross-page (node 1 on page 0, node 17 on page 1): two reads.
        let before = env.stats().snapshot();
        assert!(!idx.same_component(1, 17).unwrap());
        assert_eq!(env.stats().snapshot().since(&before).total_ios(), 2);
        assert!(idx.same_component(16, 19).unwrap(), "answers stay correct");
    }

    #[test]
    fn component_of_many_pays_one_read_per_distinct_page() {
        let env = env();
        let labels = two_page_labels(&env);
        let path = idx_path(&env, "many");
        SccIndex::build(&env, &path, &labels, 20, None).unwrap();
        let mut idx = SccIndex::open(&env, &path).unwrap();

        // k probes on one page => one logical read, results in input order.
        let before = env.stats().snapshot();
        let reps = idx.component_of_many(&[15, 0, 7, 0, 3]).unwrap();
        assert_eq!(reps, vec![12, 0, 4, 0, 0]);
        assert_eq!(env.stats().snapshot().since(&before).total_ios(), 1);

        // A batch spanning both pages: exactly two reads.
        let before = env.stats().snapshot();
        let reps = idx.component_of_many(&[19, 2, 16, 3]).unwrap();
        assert_eq!(reps, vec![16, 0, 16, 0]);
        assert_eq!(env.stats().snapshot().since(&before).total_ios(), 2);

        // Empty batch: no I/O. Out-of-range anywhere: error before any I/O.
        let before = env.stats().snapshot();
        assert!(idx.component_of_many(&[]).unwrap().is_empty());
        let err = idx.component_of_many(&[1, 99, 2]).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        assert_eq!(env.stats().snapshot().since(&before).total_ios(), 0);
    }

    #[test]
    fn shared_reader_matches_owned_answers_and_logical_costs() {
        let build_env = env();
        let labels = two_page_labels(&build_env);
        let path = idx_path(&build_env, "shared");
        SccIndex::build(&build_env, &path, &labels, 20, None).unwrap();

        // Fresh env so the owned open's logical cost is isolated.
        let fresh = env();
        let open0 = fresh.stats().snapshot();
        let mut owned = SccIndex::open(&fresh, &path).unwrap();
        let owned_open = fresh.stats().snapshot().since(&open0);
        let reader = SccIndex::open_shared(&path, 8).unwrap();
        assert_eq!(reader.stats(), owned_open, "open protocols priced identically");
        assert_eq!(reader.n_nodes(), 20);
        assert_eq!(reader.n_sccs(), 5);
        assert_eq!(reader.page_size(), 64);
        assert_eq!(reader.generation(), 0);

        // Every query kind: identical answers and identical logical deltas.
        let handle = reader.clone(); // fresh counters
        let mut last = handle.stats();
        let mut owned_last = fresh.stats().snapshot();
        let mut check = |tag: &str,
                         owned_r: io::Result<Vec<NodeId>>,
                         shared_r: io::Result<Vec<NodeId>>| {
            let (a, b) = (owned_r.unwrap(), shared_r.unwrap());
            assert_eq!(a, b, "{tag}: answers");
            let now = fresh.stats().snapshot();
            let owned_d = now.since(&owned_last);
            owned_last = now;
            let snow = handle.stats();
            let shared_d = snow.since(&last);
            last = snow;
            assert_eq!(owned_d, shared_d, "{tag}: logical I/O");
        };
        for u in [0u32, 7, 16, 19] {
            check(
                "component_of",
                owned.component_of(u).map(|r| vec![r]),
                handle.component_of(u).map(|r| vec![r]),
            );
        }
        for (u, v) in [(3, 3), (1, 2), (1, 14), (1, 17), (16, 19)] {
            check(
                "same_component",
                owned.same_component(u, v).map(|b| vec![b as u32]),
                handle.same_component(u, v).map(|b| vec![b as u32]),
            );
        }
        check(
            "component_of_many",
            owned.component_of_many(&[19, 2, 16, 3, 2]),
            handle.component_of_many(&[19, 2, 16, 3, 2]),
        );
        for u in [0u32, 13, 19] {
            check(
                "component_size",
                owned.component_size(u).map(|s| vec![s as u32]),
                handle.component_size(u).map(|s| vec![s as u32]),
            );
        }
        // Section iterators: identical streams and identical logical cost
        // (shared-path parity for components and condensation_edges).
        check(
            "components",
            Ok(owned.components().map(|c| c.unwrap().0).collect()),
            Ok(handle.components().map(|c| c.unwrap().0).collect()),
        );
        check(
            "condensation_edges",
            Ok(owned.condensation_edges().map(|e| e.unwrap().src).collect()),
            Ok(handle.condensation_edges().map(|e| e.unwrap().src).collect()),
        );

        // Errors carry the same message across handles.
        let e1 = owned.component_of(77).unwrap_err();
        let e2 = handle.component_of(77).unwrap_err();
        assert_eq!(e1.to_string(), e2.to_string());

        // The pool is genuinely shared: a second clone hitting the same
        // pages performs zero physical reads.
        let warm = reader.clone();
        let phys0 = warm.phys();
        warm.component_of(5).unwrap();
        let d = warm.phys().since(&phys0);
        assert_eq!(d.reads, 0, "page already resident");
        assert_eq!(d.hits, 1);
    }

    #[test]
    fn shared_open_rejects_corruption_like_owned_open() {
        let build_env = env();
        let labels = sample_labels(&build_env);
        let path = idx_path(&build_env, "sharedbad");
        SccIndex::build(&build_env, &path, &labels, 6, None).unwrap();
        let pristine = std::fs::read(&path).unwrap();

        // Last byte of the final size-table entry (not padding).
        let hdr = {
            let mut raw = [0u8; HEADER_LEN];
            raw.copy_from_slice(&pristine[..HEADER_LEN]);
            Header::decode(&raw).unwrap()
        };
        let mut flipped = pristine.clone();
        let at = (hdr.sizes_off + SIZE_ENTRY * hdr.n_nodes - 1) as usize;
        flipped[at] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        let err = SccIndex::open_shared(&path, 4).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");

        std::fs::write(&path, &pristine[..HEADER_LEN / 2]).unwrap();
        assert!(SccIndex::open_shared(&path, 4).is_err(), "short header");

        std::fs::write(&path, &pristine).unwrap();
        assert!(SccIndex::open_shared(&path, 4).is_ok());
    }

    #[test]
    fn dag_section_roundtrips_on_both_handles() {
        let env = env();
        let labels = sample_labels(&env);
        let dag = env
            .file_from_slice(
                "dag",
                &[CountedEdge::new(0, 2, 1), CountedEdge::new(2, 3, 4)],
            )
            .unwrap();
        let path = idx_path(&env, "dag");
        SccIndex::build(&env, &path, &labels, 6, Some(&dag)).unwrap();
        let mut idx = SccIndex::open(&env, &path).unwrap();
        assert!(idx.has_condensation());
        assert_eq!(idx.n_dag_edges(), 2);
        let edges: Vec<Edge> = idx.condensation_edges().map(|e| e.unwrap()).collect();
        assert_eq!(edges, vec![Edge::new(0, 2), Edge::new(2, 3)]);
        // Satellite parity: the shared reader streams the same DAG.
        let reader = SccIndex::open_shared(&path, 4).unwrap();
        assert!(reader.has_condensation());
        let shared: Vec<Edge> = reader.condensation_edges().map(|e| e.unwrap()).collect();
        assert_eq!(shared, edges);
        let comps: Vec<(u32, u64)> = reader.components().map(|c| c.unwrap()).collect();
        assert_eq!(comps, vec![(0, 2), (2, 1), (3, 3)]);
        assert_eq!(reader.dirty_components().count(), 0);
    }

    #[test]
    fn empty_graph_has_an_empty_but_valid_index() {
        let env = env();
        let labels = env.file_from_slice::<SccLabel>("none", &[]).unwrap();
        let path = idx_path(&env, "empty");
        assert_eq!(SccIndex::build(&env, &path, &labels, 0, None).unwrap(), 0);
        let mut idx = SccIndex::open(&env, &path).unwrap();
        assert_eq!(idx.n_nodes(), 0);
        assert_eq!(idx.components().count(), 0);
        assert!(idx.component_of(0).is_err());
    }

    #[test]
    fn build_rejects_sparse_or_short_labels() {
        let env = env();
        let short = env.file_from_slice("s", &[SccLabel::new(0, 0)]).unwrap();
        assert!(SccIndex::build(&env, &env.root().join("s.i"), &short, 2, None).is_err());
        let gap = env
            .file_from_slice("g", &[SccLabel::new(0, 0), SccLabel::new(2, 2)])
            .unwrap();
        let err = SccIndex::build(&env, &env.root().join("g.i"), &gap, 2, None).unwrap_err();
        assert!(err.to_string().contains("dense"), "{err}");
    }

    #[test]
    fn every_meaningful_corruption_is_rejected_at_open() {
        let build_env = env();
        let labels = sample_labels(&build_env);
        let dag = build_env
            .file_from_slice("dag", &[CountedEdge::new(0, 3, 2)])
            .unwrap();
        let path = idx_path(&build_env, "corrupt");
        SccIndex::build(&build_env, &path, &labels, 6, Some(&dag)).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        assert_eq!(pristine.len() % 64, 0, "whole pages");
        let hdr = {
            let mut raw = [0u8; HEADER_LEN];
            raw.copy_from_slice(&pristine[..HEADER_LEN]);
            Header::decode(&raw).unwrap()
        };

        // Flip every byte the format validates, in turn: the header and
        // every byte of the labels, sizes and dag sections (whole pages,
        // padding included — those carry per-page hashes because the delta
        // engine patches them in place; header-page padding is never read).
        // Open must fail each time.
        assert_eq!(hdr.size_pages(), 1, "6 nodes of 8-byte entries: one padded page");
        let dag_pages_end = align_up(hdr.dag_off + DAG_ENTRY * hdr.n_dag_edges, 64) as usize;
        let meaningful = (0..HEADER_LEN)
            .chain(hdr.labels_off as usize..hdr.sizes_off as usize)
            .chain(hdr.sizes_off as usize..hdr.dag_off as usize)
            .chain(hdr.dag_off as usize..dag_pages_end);
        let mut rejected = 0usize;
        for at in meaningful {
            let mut bytes = pristine.clone();
            bytes[at] ^= 0x40;
            std::fs::write(&path, &bytes).unwrap();
            // Fresh environment: nothing cached from the build.
            let fresh = env();
            let err = SccIndex::open(&fresh, &path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "byte {at}: {err}");
            rejected += 1;
        }
        assert!(rejected > 128, "swept header, labels and records");

        // Truncation and extension are geometry errors, not garbage.
        std::fs::write(&path, &pristine[..pristine.len() - 64]).unwrap();
        assert!(SccIndex::open(&env(), &path).is_err());
        let mut longer = pristine.clone();
        longer.extend_from_slice(&[0u8; 64]);
        std::fs::write(&path, &longer).unwrap();
        assert!(SccIndex::open(&env(), &path).is_err());

        // And the pristine bytes still open.
        std::fs::write(&path, &pristine).unwrap();
        assert!(SccIndex::open(&env(), &path).is_ok());
    }

    #[test]
    fn hostile_header_with_valid_checksum_is_rejected_not_overflowed() {
        // The header checksum is unkeyed FNV: anyone can craft a header
        // whose checksum validates but whose counts would overflow the
        // geometry arithmetic. Open must answer InvalidData, never panic.
        let build_env = env();
        let labels = sample_labels(&build_env);
        let path = idx_path(&build_env, "hostile");
        SccIndex::build(&build_env, &path, &labels, 6, None).unwrap();
        let pristine = std::fs::read(&path).unwrap();

        // (header word index, hostile value): n_nodes = 2^62, huge page
        // size, huge dag edge count, n_sccs > n_nodes, n_dirty > n_sccs.
        for (word, value) in [
            (1u64, 1u64 << 62),   // n_nodes
            (0, u64::MAX / 2),    // page_size
            (6, 1 << 62),         // n_dag_edges
            (2, 7),               // n_sccs > n_nodes (6)
            (11, 5),              // n_dirty > n_sccs (3)
        ] {
            let mut bytes = pristine.clone();
            let at = 8 + 8 * word as usize;
            bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
            // Recompute the header checksum so only geometry can reject it.
            let mut fnv = Fnv::new();
            fnv.update(&bytes[..HEADER_LEN - 8]);
            bytes[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&fnv.finish().to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let err = SccIndex::open(&env(), &path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "word {word}: {err}");
        }
    }

    #[test]
    fn version_1_artifacts_are_rejected_with_a_clear_error() {
        let build_env = env();
        let labels = sample_labels(&build_env);
        let path = idx_path(&build_env, "v1");
        SccIndex::build(&build_env, &path, &labels, 6, None).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = SccIndex::open(&env(), &path).unwrap_err();
        assert!(
            err.to_string().contains("unsupported index version 1"),
            "{err}"
        );
        assert!(err.to_string().contains("rebuild"), "{err}");
    }

    #[test]
    fn version_2_artifacts_are_rejected_with_a_clear_error() {
        let build_env = env();
        let labels = sample_labels(&build_env);
        let path = idx_path(&build_env, "v2");
        SccIndex::build(&build_env, &path, &labels, 6, None).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        for err in [
            SccIndex::open(&env(), &path).unwrap_err(),
            SccIndex::open_shared(&path, 4).unwrap_err(),
        ] {
            assert!(
                err.to_string().contains("unsupported index version 2"),
                "{err}"
            );
            assert!(err.to_string().contains("rebuild"), "{err}");
        }
    }

    #[test]
    fn component_size_is_two_reads_on_both_handles() {
        let build_env = env();
        let labels = two_page_labels(&build_env);
        let path = idx_path(&build_env, "size2");
        SccIndex::build(&build_env, &path, &labels, 20, None).unwrap();
        let fresh = env();
        let mut owned = SccIndex::open(&fresh, &path).unwrap();
        let reader = SccIndex::open_shared(&path, 0).unwrap();
        for u in 0u32..20 {
            let before = fresh.stats().snapshot();
            let s_before = reader.stats();
            let a = owned.component_size(u).unwrap();
            let b = reader.component_size(u).unwrap();
            let owned_d = fresh.stats().snapshot().since(&before);
            let shared_d = reader.stats().since(&s_before);
            assert_eq!(a, 4, "component_size({u})");
            assert_eq!(a, b, "component_size({u}): answers");
            assert_eq!(owned_d.total_ios(), 2, "component_size({u}): label + size");
            assert_eq!(owned_d, shared_d, "component_size({u}): logical I/O");
        }
    }

    #[test]
    fn size_table_is_indexed_by_node() {
        let env = env();
        let labels = sample_labels(&env);
        let path = idx_path(&env, "dense");
        SccIndex::build(&env, &path, &labels, 6, None).unwrap();
        let mut idx = SccIndex::open(&env, &path).unwrap();
        let hdr = idx.hdr;
        let sizes: Vec<u64> = (0..6)
            .map(|u| read_size(&mut idx.file, &hdr, u).unwrap())
            .collect();
        assert_eq!(sizes, vec![2, 0, 1, 3, 0, 0], "0 for non-representatives");
        assert!(read_size(&mut idx.file, &hdr, 6).is_err(), "outside the table");
        assert_eq!(idx.components().count() as u64, idx.n_sccs());
    }

    #[test]
    fn build_rejects_a_representative_outside_the_node_range() {
        let env = env();
        let labels = env
            .file_from_slice("far", &[SccLabel::new(0, 0), SccLabel::new(1, 7)])
            .unwrap();
        let err = SccIndex::build(&env, &env.root().join("far.i"), &labels, 2, None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("representative 7"), "{err}");
    }

    #[test]
    fn rebuild_at_the_same_path_truncates_the_old_artifact() {
        let env = env();
        let labels = sample_labels(&env);
        let path = idx_path(&env, "re");
        let dag = env.file_from_slice("dag", &[CountedEdge::new(0, 2, 1)]).unwrap();
        SccIndex::build(&env, &path, &labels, 6, Some(&dag)).unwrap();
        // A stale journal sidecar is dropped by the rebuild too.
        std::fs::write(journal_path(&path), b"stale").unwrap();
        let small = env
            .file_from_slice("l2", &[SccLabel::new(0, 0), SccLabel::new(1, 0)])
            .unwrap();
        SccIndex::build(&env, &path, &small, 2, None).unwrap();
        let mut idx = SccIndex::open(&env, &path).unwrap();
        assert_eq!(idx.n_nodes(), 2);
        assert!(!idx.has_condensation());
        assert!(idx.same_component(0, 1).unwrap());
        assert!(!journal_path(&path).exists(), "stale sidecar removed");
    }
}
