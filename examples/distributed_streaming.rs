//! The streaming protocol as one OS process per role over framed
//! sockets: the **unedited output** of
//!
//! ```text
//! rumpsteak-gen crates/codegen/tests/protocols/dstreaming.scr --skeleton --distributed
//! ```
//!
//! pinned byte-for-byte as `crates/codegen/tests/goldens/dstreaming.rs`
//! and spliced in below. `scripts/run_distributed_example.sh tcp|uds`
//! runs both roles (`distributed_streaming <S|T> <topology-file>`).

include!("../crates/codegen/tests/goldens/dstreaming.rs");
