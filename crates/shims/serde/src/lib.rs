//! A minimal, API-compatible stand-in for the `serde` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the slice of serde's data model it actually uses:
//! the `Serialize`/`Deserialize` traits, the `Serializer`/`Deserializer`
//! trait pairs with their compound-access companions, and derive macros
//! for plain structs and enums (via the sibling `serde_derive` shim).
//!
//! Real serde implements `Serialize` for `Arc<T>` and `Deserialize` for
//! `Arc<str>` only behind its `rc` feature. The shim always has them and
//! keeps an empty `rc` feature, so a crate that serializes shared
//! pointers (`infopipes`) requests it and keeps building unchanged when
//! the real crate is swapped in.
//!
//! The netpipe wire codec (`netpipe::wire`) implements these traits from
//! scratch, exactly as it would against real serde; swapping the real
//! crate back in requires no source changes in the workspace.

pub mod de;
pub mod ser;

pub use de::{Deserialize, DeserializeOwned, Deserializer};
pub use ser::{Serialize, Serializer};

// Derive macros share the trait names (macro namespace vs type
// namespace), mirroring serde's `derive` feature.
pub use serde_derive::{Deserialize, Serialize};
