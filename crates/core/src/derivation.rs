//! The engine's side of the derivation value ([`hb_check::Derivation`]):
//! the live world's epochs it is stamped with, and how it reached the
//! engine. Every derivation is stored through one landing function and
//! every foreign one passes one validity check (`Engine::adoptable`).

pub use hb_check::{Derivation, Epochs, VersionKey};
use hb_interp::Interp;
use hb_rdl::RdlState;

/// The current epochs of a live interpreter and type table.
pub fn epochs_of(interp: &Interp, rdl: &RdlState) -> Epochs {
    (
        rdl.table_fingerprint(),
        interp.registry.shape_fingerprint(),
        rdl.var_fingerprint(),
    )
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
