//! The delta log — the `<artifact>.dlog` sidecar of a maintained index.
//!
//! A [`DeltaEngine`](crate::delta::DeltaEngine) commit that merges no
//! components changes only the condensation DAG and dirty sections and the
//! header. Such a commit does not touch the artifact: it appends one
//! checksummed **record** to this log and fsyncs it, and that fsync is the
//! commit point. Every open ([`SccIndex::open`](crate::index::SccIndex::open),
//! [`SccIndex::open_shared`](crate::index::SccIndex::open_shared), the delta
//! engine's) replays the log's valid prefix over the base artifact, so all
//! handles land on the same generation.
//!
//! ## Records (all integers little-endian)
//!
//! ```text
//! head      magic "CEDL", kind: u32 (1 commit, 2 checkpoint), len: u64
//!           (whole record), prev: u64, n_ops: u64, n_pages: u64
//! ops       n_ops journal operations (tag, src, dst: u32 each)
//! table     n_pages × (offset: u64, page_hash: u64)
//! header    the generation's full index header (HEADER_LEN bytes)
//! meta_fnv  FNV-1a over head ‖ ops ‖ table ‖ header
//! images    n_pages page images, page_size bytes each, in table order
//! ```
//!
//! `prev` is the tag (the checksum word) of the header the record applies
//! on top of, so a record names the exact
//! generation it follows. Each image is checked against its table entry:
//! `page_hash(offset / page_size, image)`, the per-page hash the index
//! format already uses. A **commit** record carries the batch's journal
//! operations, the after-images of the DAG and dirty pages the commit
//! touched (absolute artifact offsets, never below the DAG section, so
//! label and size pages are never served from the log), and the header of
//! generation `g + 1`. A **checkpoint** record opens the log a fold writes:
//! it carries the whole journal since the build and repeats the folded
//! artifact's header, with no images.
//!
//! ## Replay and the torn-tail rule
//!
//! Records are read in order from byte 0. A record is *complete* when its
//! length fits the file, its `meta_fnv` matches and every image matches its
//! hash. A complete record must follow its predecessor: `prev` equals the
//! current header's tag, the generation is one more, the fixed geometry is
//! unchanged, and the journal count and running checksum extend the
//! current ones by exactly the record's operations. Then:
//!
//! * an incomplete record with no complete record anywhere after it is a
//!   **torn tail** — a commit that never reached its fsync — and replay
//!   stops before it;
//! * an incomplete record followed by a complete one, or a complete record
//!   that does not follow its predecessor, is corruption
//!   ([`io::ErrorKind::InvalidData`]);
//! * a log whose *first* record does not chain to the artifact is
//!   **stale** — left behind by a fold that renamed the new artifact into
//!   place but stopped before renaming its new log — and is ignored.
//!
//! ## Folding
//!
//! Merges, re-verification, `compact`, and any commit made once the
//! commit records hold more bytes than the artifact go through the engine's
//! fork path instead: copy the artifact, lay the log's images over the
//! copy, patch it, fsync, and rename it over the path. The fold then
//! writes a new log holding one checkpoint record under
//! `<artifact>.dlog.tmp` and renames it over the log. A crash between the
//! two renames leaves the new artifact with the old, now stale, log:
//! readers ignore it, and the delta engine's next open rolls the fold
//! forward, moving the finished new log into place.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Read};
use std::path::{Path, PathBuf};

use crate::index::{
    bad, journal_path, page_hashes, read_raw_header, Fnv, Header, HEADER_LEN, JOURNAL_ENTRY,
};

const MAGIC: &[u8; 4] = b"CEDL";
/// Record kind of a commit (generation `g` → `g + 1`).
pub(crate) const KIND_COMMIT: u32 = 1;
/// Record kind of the journal-only record that opens a folded log.
pub(crate) const KIND_CHECKPOINT: u32 = 2;
/// Bytes of the fixed record head.
const HEAD_LEN: usize = 40;
/// Bytes per page-table entry (offset, page hash).
const TABLE_ENTRY: usize = 16;

/// The page images a replayed log lays over the base artifact: the latest
/// image of each page, keyed by its absolute, page-aligned offset.
#[derive(Debug, Default)]
pub(crate) struct Overlay {
    pages: HashMap<u64, Box<[u8]>>,
    end: u64,
}

impl Overlay {
    pub(crate) fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// One past the last overlaid byte (0 when empty).
    pub(crate) fn end(&self) -> u64 {
        self.end
    }

    /// The image of the page starting at `off`, if the log holds one.
    pub(crate) fn get(&self, off: u64) -> Option<&[u8]> {
        self.pages.get(&off).map(|b| &b[..])
    }

    pub(crate) fn insert(&mut self, off: u64, image: &[u8]) {
        self.end = self.end.max(off + image.len() as u64);
        self.pages.insert(off, image.into());
    }

    /// Every image, by ascending offset.
    pub(crate) fn sorted(&self) -> Vec<(u64, &[u8])> {
        let mut v: Vec<(u64, &[u8])> = self.pages.iter().map(|(&o, b)| (o, &b[..])).collect();
        v.sort_unstable_by_key(|&(o, _)| o);
        v
    }
}

/// What replaying a log over a base header yields.
#[derive(Debug)]
pub(crate) struct Replay {
    /// Header of the current generation (the base's when nothing chained).
    pub(crate) hdr: Header,
    pub(crate) overlay: Overlay,
    /// Journal operations the log carries, concatenated in order.
    pub(crate) ops: Vec<u8>,
    /// End of the valid prefix: where the next record goes.
    pub(crate) end: u64,
    /// End of the checkpoint record (0 when the log does not open with one).
    pub(crate) checkpoint_end: u64,
    /// The log belongs to an earlier artifact and was ignored.
    pub(crate) stale: bool,
}

impl Replay {
    /// The replay of an absent or empty log.
    pub(crate) fn empty(hdr: Header) -> Replay {
        Replay {
            hdr,
            overlay: Overlay::default(),
            ops: Vec::new(),
            end: 0,
            checkpoint_end: 0,
            stale: false,
        }
    }
}

/// Where a fold writes its new log before renaming it over
/// `<artifact>.dlog`.
pub(crate) fn fold_tmp_path(path: &Path) -> PathBuf {
    let mut name = journal_path(path).into_os_string();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Opens the log of the artifact at `path` for a raw read, if it exists.
/// Open it *before* the artifact: the handle pins the log a fold may
/// rename away, so what it holds either chains to the artifact opened next
/// or is stale.
pub(crate) fn open_log(path: &Path) -> io::Result<Option<File>> {
    match File::open(journal_path(path)) {
        Ok(f) => Ok(Some(f)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// Reads a log opened by [`open_log`] whole. The log is a sidecar read
/// once per open, outside the index's logical I/O pricing (like the
/// page-size sniff), so owned and shared opens price identically.
pub(crate) fn read_log(log: Option<File>) -> io::Result<Option<Vec<u8>>> {
    log.map(|mut f| {
        let mut bytes = Vec::new();
        f.read_to_end(&mut bytes)?;
        Ok(bytes)
    })
    .transpose()
}

/// Serializes one record. `pages` are `(absolute offset, image)` pairs of
/// `page`-byte images.
pub(crate) fn encode(
    kind: u32,
    prev: u64,
    ops: &[u8],
    pages: &[(u64, &[u8])],
    hdr: &Header,
    page: u64,
) -> Vec<u8> {
    let meta = HEAD_LEN + ops.len() + TABLE_ENTRY * pages.len() + HEADER_LEN;
    let len = meta + 8 + pages.len() * page as usize;
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&kind.to_le_bytes());
    for w in [
        len as u64,
        prev,
        ops.len() as u64 / JOURNAL_ENTRY,
        pages.len() as u64,
    ] {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out.extend_from_slice(ops);
    let keyed: Vec<(u64, &[u8])> = pages.iter().map(|&(off, b)| (off / page, b)).collect();
    for (&(off, _), h) in pages.iter().zip(page_hashes(&keyed)) {
        out.extend_from_slice(&off.to_le_bytes());
        out.extend_from_slice(&h.to_le_bytes());
    }
    out.extend_from_slice(&hdr.encode());
    let mut fnv = Fnv::new();
    fnv.update(&out);
    out.extend_from_slice(&fnv.finish().to_le_bytes());
    for &(_, b) in pages {
        debug_assert_eq!(b.len() as u64, page, "images are whole pages");
        out.extend_from_slice(b);
    }
    debug_assert_eq!(out.len(), len);
    out
}

/// One complete record, borrowed from the log bytes.
struct Record<'a> {
    kind: u32,
    len: usize,
    prev: u64,
    ops: &'a [u8],
    /// `(absolute offset, byte position of the image in the log)`.
    pages: Vec<(u64, usize)>,
    hdr: Header,
}

/// Parses the record at `at` if it is complete (see the module docs).
fn parse(log: &[u8], at: usize, page: u64) -> Option<Record<'_>> {
    let rest = &log[at..];
    if rest.len() < HEAD_LEN || &rest[..4] != MAGIC {
        return None;
    }
    let word = |i: usize| u64::from_le_bytes(rest[8 * i..8 * i + 8].try_into().unwrap());
    let kind = u32::from_le_bytes(rest[4..8].try_into().unwrap());
    let (len, prev, n_ops, n_pages) = (word(1), word(2), word(3), word(4));
    // Bound every count by the bytes present before any arithmetic on it.
    let avail = rest.len() as u64;
    if !(kind == KIND_COMMIT || kind == KIND_CHECKPOINT)
        || len > avail
        || n_ops > avail
        || n_pages > avail
    {
        return None;
    }
    let (n_ops, n_pages) = (n_ops as usize, n_pages as usize);
    let ops_end = HEAD_LEN + n_ops * JOURNAL_ENTRY as usize;
    let meta = ops_end + n_pages * TABLE_ENTRY + HEADER_LEN;
    if (n_pages as u64)
        .checked_mul(page)
        .and_then(|b| b.checked_add((meta + 8) as u64))
        != Some(len)
    {
        return None;
    }
    let mut fnv = Fnv::new();
    fnv.update(&rest[..meta]);
    if fnv.finish() != u64::from_le_bytes(rest[meta..meta + 8].try_into().unwrap()) {
        return None;
    }
    let hdr = Header::decode(rest[meta - HEADER_LEN..meta].try_into().unwrap()).ok()?;
    let ps = page as usize;
    let table = &rest[ops_end..meta - HEADER_LEN];
    let mut pages = Vec::with_capacity(n_pages);
    let mut keyed = Vec::with_capacity(n_pages);
    for (i, e) in table.chunks_exact(TABLE_ENTRY).enumerate() {
        let off = u64::from_le_bytes(e[0..8].try_into().unwrap());
        let img = meta + 8 + i * ps;
        pages.push((off, at + img));
        keyed.push((off / page, &rest[img..img + ps]));
    }
    let stored = table
        .chunks_exact(TABLE_ENTRY)
        .map(|e| u64::from_le_bytes(e[8..16].try_into().unwrap()));
    if !page_hashes(&keyed).into_iter().eq(stored) {
        return None;
    }
    Some(Record {
        kind,
        len: len as usize,
        prev,
        ops: &rest[HEAD_LEN..ops_end],
        pages,
        hdr,
    })
}

/// Does the complete record `rec`, found at byte `at`, follow `cur`?
fn follows(cur: &Header, rec: &Record<'_>, at: usize) -> bool {
    let n_ops = rec.ops.len() as u64 / JOURNAL_ENTRY;
    let h = &rec.hdr;
    if rec.kind == KIND_CHECKPOINT {
        let mut fnv = Fnv::new();
        fnv.update(rec.ops);
        return at == 0
            && rec.pages.is_empty()
            && h.encode() == cur.encode()
            && n_ops == cur.n_journal
            && fnv.finish() == cur.journal_fnv;
    }
    let mut fnv = Fnv::from_state(cur.journal_fnv);
    fnv.update(rec.ops);
    cur.dag_off != 0
        && cur.generation.checked_add(1) == Some(h.generation)
        && (
            h.page_size,
            h.n_nodes,
            h.n_sccs,
            h.labels_off,
            h.sizes_off,
            h.dag_off,
        ) == (
            cur.page_size,
            cur.n_nodes,
            cur.n_sccs,
            cur.labels_off,
            cur.sizes_off,
            cur.dag_off,
        )
        && (h.labels_xor, h.sizes_xor) == (cur.labels_xor, cur.sizes_xor)
        && cur.n_journal.checked_add(n_ops) == Some(h.n_journal)
        && h.journal_fnv == fnv.finish()
        && rec
            .pages
            .iter()
            .all(|&(off, _)| off % cur.page_size == 0 && off >= cur.dag_off)
}

/// Replays the valid prefix of `log` over the artifact whose header is
/// `base` (see the module docs for the rules).
pub(crate) fn replay(base: Header, log: &[u8]) -> io::Result<Replay> {
    let page = base.page_size;
    let mut r = Replay::empty(base);
    // Latest image of each page, as a byte position in `log`.
    let mut latest: HashMap<u64, usize> = HashMap::new();
    let mut at = 0usize;
    while at < log.len() {
        let Some(rec) = parse(log, at, page) else {
            if (at + 1..log.len())
                .any(|q| log[q..].starts_with(MAGIC) && parse(log, q, page).is_some())
            {
                return Err(bad(&format!(
                    "delta log record at byte {at} is corrupt but complete records follow it"
                )));
            }
            break; // torn tail
        };
        if at == 0 && rec.prev != r.hdr.tag() {
            return Ok(Replay {
                stale: true,
                ..Replay::empty(base)
            });
        }
        if rec.prev != r.hdr.tag() || !follows(&r.hdr, &rec, at) {
            return Err(bad(&format!(
                "delta log record at byte {at} does not follow the generation before it"
            )));
        }
        r.hdr = rec.hdr;
        r.ops.extend_from_slice(rec.ops);
        latest.extend(rec.pages.iter().copied());
        at += rec.len;
        if rec.kind == KIND_CHECKPOINT {
            r.checkpoint_end = at as u64;
        }
    }
    for (off, pos) in latest {
        r.overlay.insert(off, &log[pos..pos + page as usize]);
    }
    r.end = at as u64;
    Ok(r)
}

/// Finishes a fold that stopped between its two renames: if a new log is
/// waiting under [`fold_tmp_path`] and opens with a checkpoint of exactly
/// the artifact now at `path`, it is renamed over the log; any other
/// waiting file is left from a fold that failed before its artifact rename
/// and is removed. Returns whether a log was rolled forward. Only the
/// index's single writer calls this.
pub(crate) fn roll_forward(path: &Path) -> io::Result<bool> {
    let tmp = fold_tmp_path(path);
    let bytes = match std::fs::read(&tmp) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(e),
    };
    let hdr = read_raw_header(path)?;
    let chains = parse(&bytes, 0, hdr.page_size)
        .is_some_and(|r| r.kind == KIND_CHECKPOINT && r.prev == hdr.tag() && follows(&hdr, &r, 0));
    if chains {
        std::fs::rename(&tmp, journal_path(path))?;
    } else {
        std::fs::remove_file(&tmp)?;
    }
    Ok(chains)
}
