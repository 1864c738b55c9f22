//! The derivation value: what a passing `check_sig` proved about one
//! method body, together with everything that proof's validity rests on
//! (paper Definition 1).
//!
//! One type travels every path a derivation takes: checked on the
//! interpreter thread, published to and adopted from the process-wide
//! shared tier (including entries a snapshot or the fleet daemon
//! delivered), and harvested from a scheduler worker. The engine stores
//! all of them through one landing function and tests every foreign one
//! with one validity check (`Engine::adoptable`).

use hb_intern::Sym;
use hb_interp::Interp;
use hb_rdl::{MethodKey, RdlState, Witness};
use std::sync::Arc;

/// A world's `(type table, class hierarchy, variable types)` rolling
/// fingerprints. Two worlds with equal epochs went through the identical
/// mutation sequence, so a derivation built in one holds in the other.
pub type Epochs = (u64, u64, u64);

/// The current epochs of a live interpreter and type table.
pub fn epochs_of(interp: &Interp, rdl: &RdlState) -> Epochs {
    (
        rdl.table_fingerprint(),
        interp.registry.shape_fingerprint(),
        rdl.var_fingerprint(),
    )
}

/// Identity of a derivation within its method's shared-tier family: the
/// method-table entry id, the signature version and the body fingerprint.
/// The last guards against entry-id/version counter coincidences between
/// tenants running *different* codebases.
pub type VersionKey = (u64, u64, u64);

/// A cached derivation: the paper's cache entry `(DM, D≤)`, represented by
/// what must stay unchanged for it to remain valid.
#[derive(Debug, Clone)]
pub struct Derivation {
    /// The method-table entry id the body was lowered from ((EDef)
    /// invalidation: redefinition changes the id).
    pub entry_id: u64,
    /// The annotation version the body was checked against ((EType)
    /// invalidation: type changes bump it).
    pub sig_version: u64,
    /// Cross-process body fingerprint (source content hash, definition
    /// span, captured-environment types). `None` for bodies without a
    /// stable source identity: those cache locally but never enter the
    /// shared tier.
    pub body_fp: Option<u64>,
    /// Content fingerprint of the checked method's own signature.
    pub own_sig_fp: u64,
    /// The world's epochs when the derivation was built. A consumer with
    /// equal epochs adopts in O(1); otherwise it replays the witnesses.
    pub epochs: Epochs,
    /// The (TApp) resolutions the derivation consulted, with the version
    /// and fingerprint each target had — Definition 1(2)'s dependency set,
    /// negative lookups included.
    pub witnesses: Arc<[Witness]>,
    /// The derivation's `rdl_cast` sites as `(file, lo, hi)` span
    /// triples: facts about the checked body, replicated on adoption so
    /// warm tenants report the Casts statistic identically to cold ones.
    pub cast_sites: Arc<[(u32, u32, u32)]>,
}

impl Derivation {
    /// The shared-tier identity, when the body has a stable one.
    pub fn version_key(&self) -> Option<VersionKey> {
        self.body_fp.map(|fp| (self.entry_id, self.sig_version, fp))
    }

    /// The annotation keys the derivation consulted: replacing any of
    /// them invalidates it.
    pub fn deps(&self) -> impl Iterator<Item = MethodKey> + '_ {
        self.witnesses.iter().filter_map(|w| w.resolution.target)
    }

    /// The `(method, class_level)` lookups the derivation relied on
    /// resolving to *no* annotation (an unannotated `initialize` behind
    /// `C.new`, a class-level miss that fell back to the `Class` chain).
    /// A first-ever annotation for such a name has no shadowed entry to
    /// hang Definition 1(2) on, so these get edges of their own.
    pub fn neg_deps(&self) -> impl Iterator<Item = (Sym, bool)> + '_ {
        self.witnesses
            .iter()
            .filter(|w| w.resolution.target.is_none())
            .map(|w| (w.resolution.method, w.resolution.class_level))
    }
}

/// How a derivation reached the engine. It decides the accounting, never
/// the validity: every foreign derivation passes the same adoption test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Provenance {
    /// `check_sig` ran on the interpreter thread.
    Checked,
    /// Adopted from the shared tier: another tenant's derivation, or one
    /// a snapshot or the fleet daemon delivered.
    Adopted,
    /// `check_sig` ran on a scheduler worker. `deferred` when a call was
    /// admitted before the derivation landed.
    Harvested { deferred: bool },
}
