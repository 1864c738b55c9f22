//! The derivation value: what a passing [`check_sig`](crate::check_sig)
//! proved about one method body, together with everything that proof's
//! validity rests on (paper Definition 1).
//!
//! One type travels every path a derivation takes: checked on the
//! interpreter thread, finished on a scheduler worker, published to and
//! adopted from the process-wide shared tier (including entries a
//! snapshot or the fleet daemon delivered). It lives beside
//! [`CheckOutcome`] so that every producer, wherever it runs, builds it
//! through the one constructor, [`Derivation::stamp`].

use crate::CheckOutcome;
use hb_intern::Sym;
use hb_rdl::{MethodKey, Witness};
use std::sync::Arc;

/// A world's `(type table, class hierarchy, variable types)` rolling
/// fingerprints. Two worlds with equal epochs went through the identical
/// mutation sequence, so a derivation built in one holds in the other.
pub type Epochs = (u64, u64, u64);

/// Identity of a derivation within its method's shared-tier family: the
/// method-table entry id, the signature version and the body fingerprint.
/// The last guards against entry-id/version counter coincidences between
/// tenants running *different* codebases.
pub type VersionKey = (u64, u64, u64);

/// A cached derivation: the paper's cache entry `(DM, D≤)`, represented by
/// what must stay unchanged for it to remain valid. Two derivations are
/// equal when every field is: the shared tier keeps one copy of each.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// The derivation a passing check proved, in the world it ran against:
    /// each of the outcome's resolutions becomes a witness stamped with
    /// the `(version, signature fingerprint)` that `lookup` reports for its
    /// target — `(0, 0)` for a negative lookup or a target the world does
    /// not hold. The live engine looks targets up in its type table, a
    /// worker in the task's world snapshot; nothing else differs.
    pub fn stamp(
        outcome: &CheckOutcome,
        entry_id: u64,
        sig_version: u64,
        body_fp: Option<u64>,
        own_sig_fp: u64,
        epochs: Epochs,
        mut lookup: impl FnMut(MethodKey) -> Option<(u64, u64)>,
    ) -> Derivation {
        let witnesses: Vec<Witness> = outcome
            .resolutions
            .iter()
            .map(|res| {
                let (sig_version, sig_fingerprint) =
                    res.target.and_then(&mut lookup).unwrap_or((0, 0));
                Witness {
                    resolution: *res,
                    sig_version,
                    sig_fingerprint,
                }
            })
            .collect();
        Derivation {
            entry_id,
            sig_version,
            body_fp,
            own_sig_fp,
            epochs,
            witnesses: witnesses.into(),
            cast_sites: outcome.cast_sites.iter().copied().collect(),
        }
    }

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
