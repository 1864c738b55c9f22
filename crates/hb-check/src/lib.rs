//! Hummingbird's flow-sensitive static type checker over RIL-like CFGs.
//!
//! Invoked at run time at method entry (paper §3/§4): the engine calls
//! [`check_sig`] with the method's CFG, the *current* type table, and the
//! receiver's class. A successful check's (TApp) resolutions are stamped
//! into a [`Derivation`], which cache invalidation and adoption read;
//! failures are the paper's `blame`.

pub mod checker;
pub mod derivation;
pub mod info;
pub mod table;

pub use checker::{
    check_sig, generic_params, verify_candidate, CheckError, CheckOutcome, CheckRequest,
};
pub use derivation::{Derivation, Epochs, VersionKey};
pub use hb_rdl::CheckPolicy;
pub use info::{ClassInfo, InfoHierarchy, MapClassInfo};
pub use table::TypeTable;
