//! Wire codec for shard-to-shard space transfer.
//!
//! Cluster migration moves memory between kernel shards as
//! [`SpaceDelta`]s — the same leaf-granularity encoding checkpoints
//! persist (DESIGN.md §9) — serialized to the checkpoint JSON form.
//! Reusing one codec keeps every byte that crosses a shard link
//! byte-stable and replayable: the data plane transfers exactly what
//! `delta_since`/`apply_delta` round-trip, nothing more.
//!
//! A leaf pull calls both halves on the pulling job's own thread
//! (encode from the home shard's frozen image, then decode), and a
//! homecoming calls them on the job's and the joining parent's
//! threads. Page data rides as hex, so a page costs about 8 KiB on the
//! wire; both directions are linear in that size.

use det_memory::SpaceDelta;
use serde::Value;

/// Encodes a delta in the checkpoint JSON leaf encoding. The output is
/// canonical: the same delta always encodes to the same bytes, so
/// transfer sizes (and the virtual-time charges derived from them) are
/// deterministic.
pub fn delta_to_json(d: &SpaceDelta) -> String {
    serde_json::to_string(&crate::trace::v_delta(d)).expect("delta encoding is infallible")
}

/// Decodes a delta produced by [`delta_to_json`].
pub fn delta_from_json(s: &str) -> Result<SpaceDelta, String> {
    let v: Value = serde_json::from_str(s).map_err(|e| format!("delta wire decode: {e}"))?;
    crate::trace::p_delta(&v).map_err(|e| format!("delta wire decode: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use det_memory::{AddressSpace, Perm, Region};

    #[test]
    fn delta_json_roundtrip() {
        let mut s = AddressSpace::new();
        s.map_zero(Region::new(0x1000, 0x4000), Perm::RW).unwrap();
        s.write(0x2000, b"wire codec").unwrap();
        s.set_perm(Region::new(0x3000, 0x4000), Perm::R).unwrap();
        let d = s.delta_since(&AddressSpace::new());
        let json = delta_to_json(&d);
        assert_eq!(json, delta_to_json(&d), "encoding is canonical");
        let back = delta_from_json(&json).unwrap();
        let mut replica = AddressSpace::new();
        replica.apply_delta(&back).unwrap();
        assert_eq!(replica.content_digest(), s.content_digest());
    }
}
