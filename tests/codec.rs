//! The JSON codec under the shard wire, traces, checkpoints and I/O
//! logs stays linear in its input and total on it: a fully dirty
//! page-table leaf round-trips through `det_kernel::wire` in
//! milliseconds, and input nested past the parser's recursion limit
//! is a typed error at every public decoder, never a stack overflow.

use det_kernel::{Checkpoint, IoLog, KernelError, Trace, wire};
use det_memory::{AddressSpace, PAGE_SIZE, PAGES_PER_LEAF, Perm, Region};

/// Leaf-aligned base address (a leaf maps `PAGES_PER_LEAF` pages).
const BASE: u64 = 0x4000_0000;

/// Input nested this deep overflowed the parser's stack when it
/// recursed without a limit.
const DEEP: usize = 1_000_000;

#[test]
fn fully_dirty_leaf_roundtrips_through_the_wire() {
    let region = Region::new(BASE, BASE + (PAGES_PER_LEAF * PAGE_SIZE) as u64);
    let mut mem = AddressSpace::new();
    mem.map_zero(region, Perm::RW).unwrap();
    // Varied nonzero words on every page, so each page ships as hex
    // data rather than as a zero-page marker.
    let words: Vec<u64> = (0..(PAGES_PER_LEAF * PAGE_SIZE / 8) as u64)
        .map(|i| i.wrapping_mul(0x0123_4567_89ab_cdef) ^ 0xfedc_ba98_7654_3210)
        .collect();
    mem.write_u64s(BASE, &words).unwrap();
    let delta = mem.delta_since(&AddressSpace::new());
    assert_eq!(delta.pages.len(), PAGES_PER_LEAF);

    let json = wire::delta_to_json(&delta);
    assert!(json.len() > 2 * PAGES_PER_LEAF * PAGE_SIZE);
    let back = wire::delta_from_json(&json).unwrap();
    assert_eq!(back, delta);

    let mut replica = AddressSpace::new();
    replica.apply_delta(&back).unwrap();
    assert_eq!(replica.content_digest(), mem.content_digest());
}

#[test]
fn deep_nesting_is_a_typed_error_at_every_decoder() {
    let deep = "[".repeat(DEEP);
    let err = Trace::from_json(&deep).unwrap_err();
    assert!(err.to_string().contains("recursion limit"), "{err}");
    let err = IoLog::from_json(&deep).unwrap_err();
    assert!(err.to_string().contains("recursion limit"), "{err}");
    let objects = "{\"events\":".repeat(DEEP);
    let err = Trace::from_json(&objects).unwrap_err();
    assert!(err.to_string().contains("recursion limit"), "{err}");
    assert!(wire::delta_from_json(&deep).is_err());
}

#[test]
fn deep_nesting_under_a_valid_checkpoint_digest_is_a_typed_error() {
    // The digest is public (FNV-1a over the payload), so a hostile
    // bundle passes the integrity check and reaches the parser.
    let payload = format!(
        "{{\"boundary\":0,\"parent\":null,\"x\":{}",
        "[".repeat(DEEP)
    );
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in payload.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let bundle = format!(
        "detckpt {} {h:016x}\n{payload}",
        det_kernel::CHECKPOINT_FORMAT_VERSION
    );
    match Checkpoint::from_bytes(bundle.as_bytes()) {
        Err(KernelError::CheckpointMalformed("payload is not valid JSON")) => {}
        Err(other) => panic!("expected a malformed-payload error, got {other:?}"),
        Ok(_) => panic!("an unterminated payload decoded"),
    }
}
