//! Externally-owned key/value cache storage for incremental decoding.
//!
//! [`DecodeSession`](crate::decode::DecodeSession) originally owned its KV
//! cache as per-layer growable `Vec<f32>`s. That is fine for one session, but
//! a continuous-batching scheduler keeps *many* sessions in flight at once
//! and admits/retires them constantly — per-session growable vectors
//! fragment the allocator and make admission cost unpredictable. This module
//! splits storage out of the session behind the [`KvStore`] trait so the
//! serving layer can supply pooled memory:
//!
//! * [`VecKv`] — the simple owned store (per-layer flat vectors), used by
//!   [`DecodeSession`](crate::decode::DecodeSession), by the eval
//!   [`forward`](crate::engine::TinyTransformer::forward), and anywhere a
//!   single self-contained session is enough;
//! * [`KvPool`] — a fixed-capacity pool of uniform pages (`Box<[f32]>`)
//!   recycled across streams: releasing a page returns it to the free list
//!   instead of the allocator, so steady-state serving performs no KV
//!   allocation at all;
//! * [`PagedKv`] — a `KvStore` over pages reserved from a [`KvPool`]. A
//!   stream reserves *all* the pages its worst case needs up front
//!   ([`pages_needed`]) and hands them back on completion, so appending
//!   mid-decode can never fail and a short pool only ever delays admission
//!   (timing), never changes bytes.
//!
//! Storage layout is identical in all stores — row-major `[pos, d]` per
//! layer, keys and values separate, fused head-major within a row (exactly
//! the layout the old in-session cache used) — so swapping stores cannot
//! change any arithmetic: the decode-cache determinism contract (see
//! [`crate::decode`]) is storage-agnostic by construction.

/// Per-layer key/value row storage for one decode stream.
///
/// Positions are append-only (causal attention never rewrites a past
/// position) and every row has the same width `d_model`. `append` is called
/// once per layer per decoded position, in position order.
///
/// `Send` is a supertrait so a decode tick can feed its model groups on
/// different pool lanes ([`feed_groups`](crate::decode::feed_groups)).
pub trait KvStore: Send {
    /// Appends one position's key and value rows for `layer`.
    fn append(&mut self, layer: usize, k_row: &[f32], v_row: &[f32]);
    /// The key row of `layer` at `pos` (`pos` must be appended already).
    fn k_row(&self, layer: usize, pos: usize) -> &[f32];
    /// The value row of `layer` at `pos`.
    fn v_row(&self, layer: usize, pos: usize) -> &[f32];
}

/// The plain owned store: one flat `Vec<f32>` of keys and one of values per
/// layer. Equivalent to the pre-pool in-session cache.
pub struct VecKv {
    d: usize,
    k: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl VecKv {
    /// An empty store for `n_layers` layers of `d`-wide rows.
    pub fn new(n_layers: usize, d: usize) -> Self {
        VecKv {
            d,
            k: vec![Vec::new(); n_layers],
            v: vec![Vec::new(); n_layers],
        }
    }
}

impl KvStore for VecKv {
    fn append(&mut self, layer: usize, k_row: &[f32], v_row: &[f32]) {
        debug_assert_eq!(k_row.len(), self.d);
        debug_assert_eq!(v_row.len(), self.d);
        self.k[layer].extend_from_slice(k_row);
        self.v[layer].extend_from_slice(v_row);
    }

    fn k_row(&self, layer: usize, pos: usize) -> &[f32] {
        &self.k[layer][pos * self.d..(pos + 1) * self.d]
    }

    fn v_row(&self, layer: usize, pos: usize) -> &[f32] {
        &self.v[layer][pos * self.d..(pos + 1) * self.d]
    }
}

/// A fixed-capacity pool of uniform KV pages.
///
/// Pages are `page_floats`-long `Box<[f32]>` buffers. The pool allocates a
/// page at most once: released pages go on a free list and are handed out
/// again verbatim (stale contents are harmless — [`PagedKv`] only ever reads
/// positions it has appended). `try_reserve` is all-or-nothing so a stream
/// is either fully admitted or not admitted at all; it can never strand
/// half-reserved pages or fail mid-decode.
pub struct KvPool {
    page_floats: usize,
    capacity: usize,
    free: Vec<Box<[f32]>>,
    /// Pages handed out and not yet released (allocated lazily on first use).
    used: usize,
    /// Pages ever allocated; `capacity - allocated` can still be minted.
    allocated: usize,
}

impl KvPool {
    /// A pool of at most `capacity_pages` pages of `page_floats` floats each.
    pub fn new(page_floats: usize, capacity_pages: usize) -> Self {
        KvPool {
            page_floats: page_floats.max(1),
            capacity: capacity_pages,
            free: Vec::new(),
            used: 0,
            allocated: 0,
        }
    }

    /// Floats per page.
    pub fn page_floats(&self) -> usize {
        self.page_floats
    }

    /// Total pages this pool may hand out.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pages currently reserved by live streams.
    pub fn pages_used(&self) -> usize {
        self.used
    }

    /// Pages available for reservation right now.
    pub fn pages_free(&self) -> usize {
        self.capacity - self.used
    }

    /// Reserves exactly `n` pages, or `None` (reserving nothing) if fewer
    /// than `n` are free — the caller parks the stream and retries after a
    /// release.
    pub fn try_reserve(&mut self, n: usize) -> Option<Vec<Box<[f32]>>> {
        if n > self.pages_free() {
            return None;
        }
        let mut pages = Vec::with_capacity(n);
        for _ in 0..n {
            let page = self.free.pop().unwrap_or_else(|| {
                self.allocated += 1;
                vec![0.0; self.page_floats].into_boxed_slice()
            });
            pages.push(page);
        }
        self.used += n;
        Some(pages)
    }

    /// Returns pages to the free list for reuse.
    pub fn release(&mut self, pages: Vec<Box<[f32]>>) {
        self.used -= pages.len();
        self.free.extend(pages);
    }
}

/// Pages needed by one stream of `n_layers` layers decoding at most
/// `max_positions` positions, with `tokens_per_page` rows per page: keys and
/// values each need `ceil(max_positions / tokens_per_page)` pages per layer.
pub fn pages_needed(n_layers: usize, max_positions: usize, tokens_per_page: usize) -> usize {
    n_layers * 2 * max_positions.div_ceil(tokens_per_page.max(1))
}

struct LayerPages {
    k: Vec<Box<[f32]>>,
    v: Vec<Box<[f32]>>,
    len: usize,
}

/// A [`KvStore`] over pages reserved up front from a [`KvPool`].
///
/// Pages move from the spare stack into a layer's key or value run the first
/// time that layer crosses a page boundary; `into_pages` returns every page
/// (used and spare) for release. The `Default` value is an empty husk that
/// supports `std::mem::take` (the scheduler temporarily moves stores out of
/// its flight table to form `&mut dyn KvStore` slots).
#[derive(Default)]
pub struct PagedKv {
    d: usize,
    tokens_per_page: usize,
    layers: Vec<LayerPages>,
    spare: Vec<Box<[f32]>>,
}

impl PagedKv {
    /// A store for `n_layers` layers of `d`-wide rows over `pages`, each
    /// `page_floats` long. `pages` must cover the stream's worst case
    /// ([`pages_needed`]); running out mid-append is a logic error (panic),
    /// never a recoverable condition.
    ///
    /// # Panics
    ///
    /// Panics if a page holds fewer than one row (`page_floats < d`).
    pub fn new(n_layers: usize, d: usize, page_floats: usize, pages: Vec<Box<[f32]>>) -> Self {
        let tokens_per_page = page_floats / d.max(1);
        assert!(
            tokens_per_page > 0,
            "KV page of {page_floats} floats cannot hold a {d}-wide row"
        );
        PagedKv {
            d,
            tokens_per_page,
            layers: (0..n_layers)
                .map(|_| LayerPages {
                    k: Vec::new(),
                    v: Vec::new(),
                    len: 0,
                })
                .collect(),
            spare: pages,
        }
    }

    /// All pages (in use and spare), for returning to the [`KvPool`].
    pub fn into_pages(self) -> Vec<Box<[f32]>> {
        let mut pages = self.spare;
        for layer in self.layers {
            pages.extend(layer.k);
            pages.extend(layer.v);
        }
        pages
    }

    fn slot(&self, pos: usize) -> (usize, usize) {
        (
            pos / self.tokens_per_page,
            (pos % self.tokens_per_page) * self.d,
        )
    }
}

impl KvStore for PagedKv {
    fn append(&mut self, layer: usize, k_row: &[f32], v_row: &[f32]) {
        debug_assert_eq!(k_row.len(), self.d);
        debug_assert_eq!(v_row.len(), self.d);
        let pos = self.layers[layer].len;
        let (page, off) = self.slot(pos);
        if page == self.layers[layer].k.len() {
            let kp = self.spare.pop().expect("KV reservation exhausted (keys)");
            let vp = self.spare.pop().expect("KV reservation exhausted (values)");
            self.layers[layer].k.push(kp);
            self.layers[layer].v.push(vp);
        }
        let lp = &mut self.layers[layer];
        lp.k[page][off..off + self.d].copy_from_slice(k_row);
        lp.v[page][off..off + self.d].copy_from_slice(v_row);
        lp.len += 1;
    }

    fn k_row(&self, layer: usize, pos: usize) -> &[f32] {
        debug_assert!(pos < self.layers[layer].len);
        let (page, off) = self.slot(pos);
        &self.layers[layer].k[page][off..off + self.d]
    }

    fn v_row(&self, layer: usize, pos: usize) -> &[f32] {
        debug_assert!(pos < self.layers[layer].len);
        let (page, off) = self.slot(pos);
        &self.layers[layer].v[page][off..off + self.d]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(tag: f32, d: usize) -> Vec<f32> {
        (0..d).map(|j| tag + j as f32 / 100.0).collect()
    }

    #[test]
    fn vec_and_paged_stores_hold_identical_rows() {
        let (layers, d) = (2, 4);
        // 5 floats/page with d=4 -> 1 token per page: every append crosses a
        // page boundary, the harshest paging pattern.
        for page_floats in [5usize, 8, 64] {
            let mut pool = KvPool::new(page_floats, 64);
            let need = pages_needed(layers, 7, page_floats / d);
            let pages = pool.try_reserve(need).expect("pool sized for the test");
            let mut paged = PagedKv::new(layers, d, page_floats, pages);
            let mut flat = VecKv::new(layers, d);
            for pos in 0..7 {
                for layer in 0..layers {
                    let (k, v) = (row(pos as f32, d), row(-(pos as f32) - 1.0, d));
                    paged.append(layer, &k, &v);
                    flat.append(layer, &k, &v);
                }
            }
            for pos in 0..7 {
                for layer in 0..layers {
                    assert_eq!(paged.k_row(layer, pos), flat.k_row(layer, pos));
                    assert_eq!(paged.v_row(layer, pos), flat.v_row(layer, pos));
                }
            }
            pool.release(paged.into_pages());
            assert_eq!(pool.pages_used(), 0);
        }
    }

    #[test]
    fn pool_reservation_is_all_or_nothing_and_recycles_pages() {
        let mut pool = KvPool::new(16, 4);
        assert_eq!(pool.pages_free(), 4);
        let a = pool.try_reserve(3).unwrap();
        assert_eq!((pool.pages_used(), pool.pages_free()), (3, 1));
        assert!(pool.try_reserve(2).is_none(), "must not partially reserve");
        assert_eq!(pool.pages_used(), 3, "failed reserve must change nothing");
        let b = pool.try_reserve(1).unwrap();
        assert_eq!(pool.pages_free(), 0);
        pool.release(a);
        pool.release(b);
        assert_eq!((pool.pages_used(), pool.pages_free()), (0, 4));
        // Recycled pages come back dirty; PagedKv never reads unappended
        // positions, so contents are irrelevant — only the count matters.
        let again = pool.try_reserve(4).unwrap();
        assert_eq!(again.len(), 4);
        assert!(again.iter().all(|p| p.len() == 16));
    }

    #[test]
    fn pages_needed_covers_worst_case_exactly() {
        // 3 layers, up to 10 positions, 4 tokens/page: ceil(10/4)=3 pages
        // per lane, 2 lanes (k+v) per layer.
        assert_eq!(pages_needed(3, 10, 4), 18);
        assert_eq!(pages_needed(1, 1, 4), 2);
        assert_eq!(pages_needed(2, 8, 4), 8);
    }

    #[test]
    #[should_panic(expected = "KV reservation exhausted")]
    fn paged_kv_panics_on_under_reservation() {
        let mut paged = PagedKv::new(1, 2, 4, vec![vec![0.0; 4].into_boxed_slice(); 2]);
        paged.append(0, &[1.0, 2.0], &[3.0, 4.0]);
        paged.append(0, &[1.0, 2.0], &[3.0, 4.0]);
        // Third position needs a fresh page pair; the reservation is spent.
        paged.append(0, &[1.0, 2.0], &[3.0, 4.0]);
    }
}
