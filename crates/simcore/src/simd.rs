//! A compatibility shim left from the retired kernel-selection switch.
//!
//! The replay engine's scans (store-buffer membership, the NRU victim
//! draw, the Optane open-block search, the end-of-run live-line count)
//! each have one scalar implementation next to the structure they scan;
//! there is no second kernel set to select.

/// Has no effect. The replay scans have one implementation, so there is
/// no kernel set to pin.
///
/// Kept only because the host-time benchmark crate (`benchmark/`) still
/// calls it around its scalar-replay pass; it goes away with those calls
/// in the next change to the benchmark. Nothing else calls it.
pub fn set_force_scalar(_force: bool) {}
