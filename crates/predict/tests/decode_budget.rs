//! A delta block's header is the peer's word, not a fact: no decoder may
//! reserve more than the block's own words describe.
//!
//! A two-word block can announce 2^32 - 1 entries of zero words each, or no
//! entries of 2^32 - 1 words each. Sized by the header, `decode_block` would
//! ask for about 100 GB of entry headers for the first and a zeroed 16 GB
//! entry buffer for the second. This file is a test target of its own with a
//! single `#[test]`, so its `#[global_allocator]` sees only what the test
//! asks for, and it records the largest single request.

use predpkt_predict::{decode_block, encode_flat_into, DeltaBlock, DeltaDecodeError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Records the largest request the process makes.
struct LargestRequest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: pure delegation — every method forwards its arguments unchanged to
// `System`, which upholds the `GlobalAlloc` contract; the only addition is a
// relaxed `fetch_max`, which neither allocates nor touches the blocks.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` are the caller's, from `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: `ptr`, `layout` and `new_size` are passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LargestRequest = LargestRequest;

/// `decode_block`'s verdict on `wire` and the largest single request it made.
fn decode(wire: &[u32]) -> (Result<usize, DeltaDecodeError>, usize) {
    LARGEST.store(0, Ordering::Relaxed);
    let verdict = decode_block(wire).map(|entries| entries.len());
    (verdict, LARGEST.load(Ordering::Relaxed))
}

#[test]
fn a_header_reserves_no_more_than_its_block_describes() {
    let wire_bytes = |wire: &[u32]| std::mem::size_of_val(wire);

    // 2^32 - 1 zero-width entries: no word backs any of them.
    let many_empty = [u32::MAX, 0];
    assert_eq!(DeltaBlock::parse(&many_empty), Err(DeltaDecodeError::Width));
    let (verdict, largest) = decode(&many_empty);
    assert_eq!(verdict, Err(DeltaDecodeError::Width));
    assert!(
        largest <= wire_bytes(&many_empty),
        "[u32::MAX, 0]: a request of {largest} bytes"
    );

    // No entries of 2^32 - 1 words: an empty block, and no scratch for it.
    let wide_empty = [0, u32::MAX];
    let (verdict, largest) = decode(&wide_empty);
    assert_eq!(verdict, Ok(0));
    assert!(
        largest <= wire_bytes(&wide_empty),
        "[0, u32::MAX]: a request of {largest} bytes"
    );

    // The flat encoder's empty flush of any width still decodes.
    let mut flush = Vec::new();
    encode_flat_into(&[], 0, 40, &mut flush);
    assert_eq!(decode(&flush), (Ok(0), 0));
}
