//! Serializable snapshots of the shared derivation tier — PR 2's
//! warm-start win, carried *across processes*.
//!
//! Within one process, the second tenant to boot adopts the first tenant's
//! derivations from the [`SharedCache`] and never runs the checker. A
//! rolling deploy starts *new processes*, though, and each one used to pay
//! the full first-call check storm again. A [`CacheSnapshot`] closes that
//! gap: `Hummingbird::snapshot()` serializes every shared derivation —
//! version keys, (TApp) resolution witnesses, signature fingerprints and
//! the epoch (table/hierarchy/variable-type) fingerprints — and
//! [`SharedCache::load_snapshot`] rebuilds the tier in a freshly booted
//! process, which then resolves its first calls by adoption straight from
//! disk.
//!
//! [`SharedCache`]: crate::SharedCache
//! [`SharedCache::load_snapshot`]: crate::SharedCache::load_snapshot
//!
//! The same call is the rolling-deploy artifact push into a *live*
//! process: it adds entries to that process's shared tier and retires
//! nothing. A tenant's cached derivations stay valid until its own world
//! changes (paper Definition 1), which a foreign artifact cannot do. A
//! pushed entry is considered at the tenant's next local cache miss,
//! through the adoption gate below.
//!
//! A snapshot is a list of entries, so one version key may appear more
//! than once: each occurrence is a variant from another world, and they
//! load as one family's variants, oldest first.
//!
//! # Symbol portability
//!
//! [`hb_intern::Sym`] indices are assigned in process-local interning
//! order and are meaningless in any other process. A snapshot therefore
//! carries a *symbol dictionary* ([`hb_intern::SymDictWriter`]): every
//! serialized symbol is a dense dictionary id, and loading re-interns the
//! dictionary strings in the consuming process
//! ([`hb_intern::SymDictReader`]). Nothing else in a derivation is
//! index-based — fingerprints hash string contents via
//! [`hb_intern::fingerprint64`], whose unkeyed hasher is stable across
//! processes of the same build.
//!
//! # Soundness
//!
//! Loading a snapshot adds *candidate* derivations; nothing is trusted
//! until the normal adoption gate passes. A tenant that looks one up still
//! validates it exactly as it would a live publisher's entry: the O(1)
//! epoch fast path when the mutation-sequence fingerprints match, witness
//! replay against the tenant's own table otherwise. A snapshot taken from
//! a divergent (e.g. shadowing) world fails that validation and the tenant
//! re-checks — stale snapshots cost latency, never soundness. A snapshot
//! from a *different build* of the engine simply misses (its fingerprints
//! match nothing) for the same reason.
//!
//! # Wire format
//!
//! A version-tagged, length-prefixed little-endian binary layout (magic
//! `HBSNAP02`), hand-rolled like the rest of the workspace's
//! serialization; [`CacheSnapshot::from_bytes`] validates structure and
//! every dictionary reference before anything reaches the cache. The v2
//! format appends a trailing content checksum ([`hb_intern::fingerprint64`]
//! over everything before it), verified before any parsing, so a
//! bit-flipped artifact fails loudly with
//! [`SnapshotError::BadChecksum`] instead of desynchronizing the cursor
//! into garbage entries. The checksum-less `HBSNAP01` layout is rejected
//! as [`SnapshotError::BadMagic`] like any other unknown version.

use crate::derivation::Derivation;
use hb_intern::{fingerprint64, MethodKey, SymDictReader, SymDictWriter};
use hb_rdl::{Resolution, Witness};

/// Magic + format version (v2: trailing content checksum). Bump when the
/// layout changes; `from_bytes` rejects unknown versions instead of
/// misparsing them.
const MAGIC: &[u8; 8] = b"HBSNAP02";

/// A method key with its symbols replaced by dictionary ids.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SnapKey {
    pub class: u32,
    pub class_level: bool,
    pub method: u32,
}

/// A [`Witness`] with its symbols replaced by dictionary ids.
#[derive(Debug, Clone)]
pub(crate) struct SnapDep {
    pub start: u32,
    pub skip_receiver: bool,
    pub class_level: bool,
    pub method: u32,
    pub target: Option<SnapKey>,
    pub sig_version: u64,
    pub sig_fingerprint: u64,
}

/// One serialized shared derivation.
#[derive(Debug, Clone)]
pub(crate) struct SnapEntry {
    pub key: SnapKey,
    pub method_entry_id: u64,
    pub sig_version: u64,
    pub body_fp: u64,
    pub own_sig_fp: u64,
    pub table_fp: u64,
    pub hier_fp: u64,
    pub var_fp: u64,
    pub deps: Vec<SnapDep>,
    pub cast_sites: Vec<(u32, u32, u32)>,
}

/// A serializable image of a [`SharedCache`]: the derivations plus the
/// symbol dictionary that makes them portable. Obtain one from
/// [`SharedCache::snapshot`] (or `Hummingbird::snapshot()`), persist it
/// with [`CacheSnapshot::to_bytes`], and rebuild a tier in another process
/// with [`CacheSnapshot::from_bytes`] + [`SharedCache::load_snapshot`].
///
/// [`SharedCache`]: crate::SharedCache
/// [`SharedCache::snapshot`]: crate::SharedCache::snapshot
/// [`SharedCache::load_snapshot`]: crate::SharedCache::load_snapshot
#[derive(Debug, Clone, Default)]
pub struct CacheSnapshot {
    pub(crate) symbols: Vec<String>,
    pub(crate) entries: Vec<SnapEntry>,
}

/// Why a snapshot failed to parse or load. Malformed bytes are reported,
/// never partially applied past the point of detection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with the `HBSNAP02` magic — wrong file or
    /// an incompatible format version.
    BadMagic,
    /// The buffer ended mid-structure.
    Truncated,
    /// The trailing content checksum did not match the body: the artifact
    /// was corrupted (bit flip, torn write) after it was written. Nothing
    /// past the magic was parsed.
    BadChecksum,
    /// A dictionary string was not valid UTF-8.
    BadUtf8,
    /// A symbol reference pointed outside the dictionary.
    BadSymbol(u32),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a Hummingbird cache snapshot (bad magic)"),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadChecksum => {
                write!(f, "snapshot content checksum mismatch (corrupted artifact)")
            }
            SnapshotError::BadUtf8 => write!(f, "snapshot symbol dictionary is not UTF-8"),
            SnapshotError::BadSymbol(id) => {
                write!(f, "snapshot references unknown symbol id {id}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<Truncated> for SnapshotError {
    fn from(_: Truncated) -> SnapshotError {
        SnapshotError::Truncated
    }
}

// ----- encoding --------------------------------------------------------------
//
// The little-endian primitives below are also `HBFLEET2`'s, whose payloads
// embed `HBSNAP02` bytes.

/// Appends a `u32` (little-endian).
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` (little-endian).
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_key(out: &mut Vec<u8>, k: &SnapKey) {
    put_u32(out, k.class);
    out.push(u8::from(k.class_level));
    put_u32(out, k.method);
}

/// A read past the end of a [`ByteReader`]'s buffer. Each format maps it
/// to its own typed error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated;

/// Bounds-checked little-endian reader: every overrun is [`Truncated`],
/// never a panic or a misparse.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes remaining past the reader.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        let end = self.pos.checked_add(n).ok_or(Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(Truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, Truncated> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32` (little-endian).
    pub fn u32(&mut self) -> Result<u32, Truncated> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("take(4) yields 4 bytes"),
        ))
    }

    /// Reads a `u64` (little-endian).
    pub fn u64(&mut self) -> Result<u64, Truncated> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("take(8) yields 8 bytes"),
        ))
    }

    fn bool(&mut self) -> Result<bool, Truncated> {
        Ok(self.u8()? != 0)
    }

    fn key(&mut self) -> Result<SnapKey, Truncated> {
        Ok(SnapKey {
            class: self.u32()?,
            class_level: self.bool()?,
            method: self.u32()?,
        })
    }
}

impl CacheSnapshot {
    /// Number of serialized derivations.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Number of dictionary symbols.
    pub fn symbol_count(&self) -> usize {
        self.symbols.len()
    }

    /// Every entry's `(method key, entry id, sig version, body
    /// fingerprint)` version tuple, interned into the live process.
    pub fn entry_versions(&self) -> Result<Vec<(MethodKey, u64, u64, u64)>, SnapshotError> {
        Ok(self
            .derivations()?
            .into_iter()
            .filter_map(|(key, d)| d.version_key().map(|(id, sig, body)| (key, id, sig, body)))
            .collect())
    }

    /// The snapshot's derivations with their method keys, in entry order,
    /// re-interned into this process. `SharedCache::load_snapshot` and
    /// the fleet daemon's publish path both insert exactly these.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::BadSymbol`] when an entry references a symbol id
    /// outside the dictionary. Every entry is translated before any is
    /// returned, so a malformed snapshot yields nothing to insert.
    pub fn derivations(&self) -> Result<Vec<(MethodKey, Derivation)>, SnapshotError> {
        let dict = SymDictReader::new(self.symbols.iter().map(String::as_str));
        let sym = |id: u32| dict.sym(id).ok_or(SnapshotError::BadSymbol(id));
        let key = |k: &SnapKey| -> Result<MethodKey, SnapshotError> {
            Ok(MethodKey {
                class: sym(k.class)?,
                class_level: k.class_level,
                method: sym(k.method)?,
            })
        };
        let mut out = Vec::with_capacity(self.entries.len());
        for e in &self.entries {
            let mut deps = Vec::with_capacity(e.deps.len());
            for d in &e.deps {
                deps.push(Witness {
                    resolution: Resolution {
                        start: sym(d.start)?,
                        skip_receiver: d.skip_receiver,
                        class_level: d.class_level,
                        method: sym(d.method)?,
                        target: d.target.as_ref().map(&key).transpose()?,
                    },
                    sig_version: d.sig_version,
                    sig_fingerprint: d.sig_fingerprint,
                });
            }
            out.push((
                key(&e.key)?,
                Derivation {
                    entry_id: e.method_entry_id,
                    sig_version: e.sig_version,
                    body_fp: Some(e.body_fp),
                    own_sig_fp: e.own_sig_fp,
                    epochs: (e.table_fp, e.hier_fp, e.var_fp),
                    witnesses: deps.into(),
                    cast_sites: e.cast_sites.as_slice().into(),
                },
            ));
        }
        Ok(out)
    }

    /// A snapshot of exactly `derivations`, in the order given. A
    /// derivation without a body fingerprint is skipped: the shared tier
    /// never holds one.
    pub(crate) fn of<'a>(
        derivations: impl IntoIterator<Item = (&'a MethodKey, &'a Derivation)>,
    ) -> CacheSnapshot {
        let mut dict = SymDictWriter::new();
        let mut entries = Vec::new();
        for (key, d) in derivations {
            let Some((method_entry_id, sig_version, body_fp)) = d.version_key() else {
                continue;
            };
            let skey = key_id(&mut dict, key);
            let deps = d
                .witnesses
                .iter()
                .map(|dep| SnapDep {
                    start: dict.id(dep.resolution.start),
                    skip_receiver: dep.resolution.skip_receiver,
                    class_level: dep.resolution.class_level,
                    method: dict.id(dep.resolution.method),
                    target: dep.resolution.target.map(|t| key_id(&mut dict, &t)),
                    sig_version: dep.sig_version,
                    sig_fingerprint: dep.sig_fingerprint,
                })
                .collect();
            entries.push(SnapEntry {
                key: skey,
                method_entry_id,
                sig_version,
                body_fp,
                own_sig_fp: d.own_sig_fp,
                table_fp: d.epochs.0,
                hier_fp: d.epochs.1,
                var_fp: d.epochs.2,
                deps,
                cast_sites: d.cast_sites.to_vec(),
            });
        }
        CacheSnapshot {
            symbols: dict.strings().iter().map(|s| s.to_string()).collect(),
            entries,
        }
    }

    /// Serializes to the `HBSNAP02` wire format (trailing content
    /// checksum included).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, self.symbols.len() as u32);
        for s in &self.symbols {
            put_u32(&mut out, s.len() as u32);
            out.extend_from_slice(s.as_bytes());
        }
        put_u32(&mut out, self.entries.len() as u32);
        for e in &self.entries {
            put_key(&mut out, &e.key);
            for v in [
                e.method_entry_id,
                e.sig_version,
                e.body_fp,
                e.own_sig_fp,
                e.table_fp,
                e.hier_fp,
                e.var_fp,
            ] {
                put_u64(&mut out, v);
            }
            put_u32(&mut out, e.deps.len() as u32);
            for d in &e.deps {
                put_u32(&mut out, d.start);
                out.push(u8::from(d.skip_receiver));
                out.push(u8::from(d.class_level));
                put_u32(&mut out, d.method);
                match &d.target {
                    Some(t) => {
                        out.push(1);
                        put_key(&mut out, t);
                    }
                    None => out.push(0),
                }
                put_u64(&mut out, d.sig_version);
                put_u64(&mut out, d.sig_fingerprint);
            }
            put_u32(&mut out, e.cast_sites.len() as u32);
            for (f, lo, hi) in &e.cast_sites {
                put_u32(&mut out, *f);
                put_u32(&mut out, *lo);
                put_u32(&mut out, *hi);
            }
        }
        // Trailing content checksum over everything before it (magic
        // included): bit flips and torn writes fail loudly at parse time
        // instead of desynchronizing the cursor into garbage entries.
        let sum = fingerprint64(&out[..]);
        put_u64(&mut out, sum);
        out
    }

    /// Parses the `HBSNAP02` wire format, verifying the checksum before
    /// any structure is read.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on bad magic, checksum mismatch, truncation, or
    /// invalid UTF-8 in the symbol dictionary. (Dangling symbol references
    /// surface later, from [`crate::SharedCache::load_snapshot`].)
    pub fn from_bytes(bytes: &[u8]) -> Result<CacheSnapshot, SnapshotError> {
        let magic = bytes.get(..MAGIC.len()).ok_or(SnapshotError::Truncated)?;
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if bytes.len() < MAGIC.len() + 8 {
            return Err(SnapshotError::Truncated);
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let expected = u64::from_le_bytes(tail.try_into().unwrap());
        if fingerprint64(body) != expected {
            return Err(SnapshotError::BadChecksum);
        }
        let mut c = ByteReader::new(&body[MAGIC.len()..]);
        let nsyms = c.u32()? as usize;
        let mut symbols = Vec::with_capacity(nsyms.min(1 << 16));
        for _ in 0..nsyms {
            let len = c.u32()? as usize;
            let s = std::str::from_utf8(c.take(len)?).map_err(|_| SnapshotError::BadUtf8)?;
            symbols.push(s.to_string());
        }
        let nentries = c.u32()? as usize;
        let mut entries = Vec::with_capacity(nentries.min(1 << 16));
        for _ in 0..nentries {
            let key = c.key()?;
            let method_entry_id = c.u64()?;
            let sig_version = c.u64()?;
            let body_fp = c.u64()?;
            let own_sig_fp = c.u64()?;
            let table_fp = c.u64()?;
            let hier_fp = c.u64()?;
            let var_fp = c.u64()?;
            let ndeps = c.u32()? as usize;
            let mut deps = Vec::with_capacity(ndeps.min(1 << 12));
            for _ in 0..ndeps {
                let start = c.u32()?;
                let skip_receiver = c.bool()?;
                let class_level = c.bool()?;
                let method = c.u32()?;
                let target = if c.bool()? { Some(c.key()?) } else { None };
                deps.push(SnapDep {
                    start,
                    skip_receiver,
                    class_level,
                    method,
                    target,
                    sig_version: c.u64()?,
                    sig_fingerprint: c.u64()?,
                });
            }
            let ncasts = c.u32()? as usize;
            let mut cast_sites = Vec::with_capacity(ncasts.min(1 << 12));
            for _ in 0..ncasts {
                cast_sites.push((c.u32()?, c.u32()?, c.u32()?));
            }
            entries.push(SnapEntry {
                key,
                method_entry_id,
                sig_version,
                body_fp,
                own_sig_fp,
                table_fp,
                hier_fp,
                var_fp,
                deps,
                cast_sites,
            });
        }
        Ok(CacheSnapshot { symbols, entries })
    }
}

fn key_id(dict: &mut SymDictWriter, k: &MethodKey) -> SnapKey {
    SnapKey {
        class: dict.id(k.class),
        class_level: k.class_level,
        method: dict.id(k.method),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared_cache::SharedCache;

    fn k(c: &str, m: &str) -> MethodKey {
        MethodKey::instance(c, m)
    }

    fn sample_cache() -> SharedCache {
        let c = SharedCache::new();
        let d =
            |entry_id, sig_version, body_fp, own_sig_fp, dep: Witness, casts: &[_]| Derivation {
                entry_id,
                sig_version,
                body_fp: Some(body_fp),
                own_sig_fp,
                epochs: (11, 22, 33),
                witnesses: vec![dep].into(),
                cast_sites: casts.into(),
            };
        c.insert(
            k("Talk", "owner?"),
            d(
                7,
                3,
                0xB0D7,
                0x5167,
                Witness {
                    resolution: Resolution::of("User", false, "name", Some(k("User", "name"))),
                    sig_version: 2,
                    sig_fingerprint: 0xF00D,
                },
                &[(1, 10, 20)],
            ),
        );
        c.insert(
            k("Talk", "title"),
            d(
                9,
                1,
                0xCAFE,
                0x7777,
                Witness {
                    // Negative witness: no target.
                    resolution: Resolution::of("Talk", false, "missing", None),
                    sig_version: 0,
                    sig_fingerprint: 0,
                },
                &[],
            ),
        );
        c
    }

    #[test]
    fn snapshot_round_trips_bytes_and_cache() {
        let c = sample_cache();
        let snap = c.snapshot();
        assert_eq!(snap.entry_count(), 2);
        let bytes = snap.to_bytes();
        let parsed = CacheSnapshot::from_bytes(&bytes).expect("parses");
        assert_eq!(parsed.entry_count(), 2);
        assert_eq!(parsed.symbol_count(), snap.symbol_count());

        let fresh = SharedCache::new();
        assert_eq!(fresh.load_snapshot(&parsed).expect("loads"), 2);
        assert_eq!(fresh.len(), 2);
        let found = fresh.lookup(&k("Talk", "owner?"), 7, 3, 0xB0D7);
        let d = found
            .first()
            .expect("restored derivation hits under the original version key");
        assert_eq!(d.own_sig_fp, 0x5167);
        assert_eq!(d.epochs, (11, 22, 33));
        assert_eq!(d.witnesses.len(), 1);
        assert_eq!(d.witnesses[0].resolution.target, Some(k("User", "name")));
        assert_eq!(d.cast_sites.as_ref(), &[(1, 10, 20)]);
        // Negative witnesses survive too.
        let d2 = fresh.lookup(&k("Talk", "title"), 9, 1, 0xCAFE);
        assert_eq!(d2[0].witnesses[0].resolution.target, None);
    }

    #[test]
    fn repeated_version_keys_load_as_variants() {
        let c = sample_cache();
        let key = k("Talk", "owner?");
        let first = c.lookup(&key, 7, 3, 0xB0D7).remove(0);
        // The same method checked in another world: same version key,
        // another hierarchy epoch.
        let other = Derivation {
            epochs: (11, 99, 33),
            ..first.clone()
        };
        assert!(c.insert(key, other.clone()));
        let bytes = c.snapshot().to_bytes();
        let parsed = CacheSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(parsed.entry_count(), 3);
        let fresh = SharedCache::new();
        assert_eq!(fresh.load_snapshot(&parsed).unwrap(), 3);
        assert_eq!(
            fresh.lookup(&key, 7, 3, 0xB0D7),
            vec![other, first],
            "both variants, newest first"
        );
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert_eq!(
            CacheSnapshot::from_bytes(b"not a snapshot").unwrap_err(),
            SnapshotError::BadMagic
        );
        // v2 truncation is caught by the checksum (verified before any
        // structure is read).
        let bytes = sample_cache().snapshot().to_bytes();
        let mut short = bytes.clone();
        short.truncate(bytes.len() - 3);
        assert_eq!(
            CacheSnapshot::from_bytes(&short).unwrap_err(),
            SnapshotError::BadChecksum
        );
        // A bit flip anywhere in the body is likewise a checksum failure.
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert_eq!(
            CacheSnapshot::from_bytes(&flipped).unwrap_err(),
            SnapshotError::BadChecksum
        );
        // The checksum-less HBSNAP01 layout is an unknown version.
        let mut v1 = bytes[..bytes.len() - 8].to_vec();
        v1[..8].copy_from_slice(b"HBSNAP01");
        assert_eq!(
            CacheSnapshot::from_bytes(&v1).unwrap_err(),
            SnapshotError::BadMagic
        );
    }

    #[test]
    fn filtered_snapshot_serializes_only_kept_methods() {
        let c = sample_cache();
        let keep = k("Talk", "owner?");
        let snap = c.snapshot_filtered(|key| *key == keep);
        assert_eq!(snap.entry_count(), 1);
        let versions = snap.entry_versions().unwrap();
        assert_eq!(versions, vec![(keep, 7, 3, 0xB0D7)]);
        assert_eq!(
            snap.derivations().unwrap(),
            vec![(keep, c.lookup(&keep, 7, 3, 0xB0D7).remove(0))],
            "the kept family's derivation, translated back whole"
        );
    }

    #[test]
    fn load_rejects_dangling_symbol_ids_without_partial_application() {
        let entry = |method: u32| SnapEntry {
            key: SnapKey {
                class: 0,
                class_level: false,
                method,
            },
            method_entry_id: 1,
            sig_version: 1,
            body_fp: 1,
            own_sig_fp: 1,
            table_fp: 1,
            hier_fp: 1,
            var_fp: 1,
            deps: vec![],
            cast_sites: vec![],
        };
        let snap = CacheSnapshot {
            symbols: vec!["Talk".into(), "title".into()],
            entries: vec![
                entry(1), // valid
                entry(9), // dangling
            ],
        };
        let fresh = SharedCache::new();
        assert_eq!(
            fresh.load_snapshot(&snap).unwrap_err(),
            SnapshotError::BadSymbol(9)
        );
        assert!(
            fresh.is_empty(),
            "nothing half-loaded — the valid entry before the malformed \
             one was not applied either"
        );
    }
}
