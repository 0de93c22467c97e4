//! Single-writer multiple-reader lock-free skip list.
//!
//! Faithful implementation of the paper's Algorithms 1 (Search) and 2 (Put),
//! extended with the prefix eviction required by tuple expiration:
//!
//! - **Put** (writer only): find the predecessor tower slots, prepare the new
//!   node's `next` pointers with `Relaxed` stores (the node is unpublished,
//!   so no ordering is needed yet), then link it bottom-up with `Release`
//!   stores — the moment the level-0 predecessor pointer is stored, the node
//!   is atomically visible to readers.
//! - **Search / range scan** (any reader): traverse `next` pointers with
//!   `Acquire` loads, pairing with the writer's `Release` stores so a reader
//!   that observes a link also observes the fully initialised node behind it.
//! - **Evict-below** (writer only): unlink the ordered prefix `key < bound`
//!   by re-pointing the head tower at the first survivor per level — one
//!   prefix cut — and hand the prefix back as one `Chain` (first node +
//!   count). Readers still inside the prefix keep following valid forward
//!   pointers (prefix links are never rewritten) and drain out at the
//!   first survivor.
//!
//! ## Reclamation
//!
//! The writer owns expiration, and a sweep retires as a unit. A chain is
//! retired through `crossbeam-epoch` in **one** deferral, which counts as
//! `len` nodes toward the collection offer
//! (`Guard::defer_unchecked_nodes`), and `Chain::free` walks exactly
//! `len` level-0 links once the grace period is over.
//! [`Writer::evict_below`] retires one chain per call; the time-travel
//! index's sweep retires every series' chain in a single deferral. No
//! deferral is made per node, and none when nothing expired.
//!
//! The writer itself never pins to insert: it is the only thread that
//! retires nodes of its list, and it holds no node pointer across its own
//! retirement (its tail cache is rebuilt before a chain is handed out), so
//! every node it can reach is linked and live. Readers pin per scan.
//!
//! ## Memory layout
//!
//! Nodes are allocated with **exactly** as many tower slots as their random
//! height (expected 1⅓ slots at branching 4), not `MAX_HEIGHT` — the same
//! flexible-array layout crossbeam-skiplist and LevelDB's memtable use.
//! This keeps nodes small (the hot path is bound by cache misses while
//! walking them) at the cost of a little `unsafe` allocation code, which is
//! confined to [`Node`]. The list also tracks its current height so
//! searches descend from the highest *occupied* level instead of
//! `MAX_HEIGHT`.
//!
//! The single-writer discipline is enforced at compile time: all mutating
//! operations live on [`Writer`], which is `Send` but neither `Clone` nor
//! `Sync`, while [`Reader`] is freely cloneable and shareable.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::disallowed_methods,
    reason = "hot path: readers and the joiner loop never unwind or block (DESIGN.md §8)"
)]

use crate::sync::atomic::{AtomicUsize, Ordering};
use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::marker::PhantomData;
use std::sync::Arc;

use crossbeam_epoch::{self as epoch, Atomic, Guard, Shared};

/// Maximum tower height. With branching factor 4 this comfortably indexes
/// tens of millions of entries per list.
pub const MAX_HEIGHT: usize = 12;

/// log2 of the branching factor (4).
const BRANCHING_BITS: u32 = 2;

/// A skip-list node header; `height` tower slots follow it in the same
/// allocation (flexible array member).
#[repr(C)]
struct Node<K, V> {
    key: K,
    value: V,
    height: u8,
}

impl<K, V> Node<K, V> {
    /// Allocation layout of a node with `height` tower slots, and the byte
    /// offset of the tower.
    fn layout(height: usize) -> (Layout, usize) {
        #[expect(
            clippy::expect_used,
            reason = "layout of at most MAX_HEIGHT pointer slots; cannot overflow isize"
        )]
        let (layout, offset) = Layout::new::<Node<K, V>>()
            .extend(Layout::array::<Atomic<Node<K, V>>>(height).expect("tiny array"))
            .expect("tiny layout");
        (layout.pad_to_align(), offset)
    }

    /// Allocates and initialises a node with null tower slots.
    fn create(key: K, value: V, height: u8) -> *mut Node<K, V> {
        let (layout, tower_offset) = Self::layout(height as usize);
        // SAFETY: layout is non-zero-sized (header at minimum); we
        // initialise every field and every tower slot before use.
        unsafe {
            let ptr = alloc(layout) as *mut Node<K, V>;
            if ptr.is_null() {
                handle_alloc_error(layout);
            }
            ptr.write(Node { key, value, height });
            let tower = (ptr as *mut u8).add(tower_offset) as *mut Atomic<Node<K, V>>;
            for i in 0..height as usize {
                tower.add(i).write(Atomic::null());
            }
            ptr
        }
    }

    /// Pointer to the node's level-0 tower slot.
    ///
    /// # Safety
    /// `this` must point at a live node created by [`create`](Self::create).
    unsafe fn tower_base(this: *const Node<K, V>) -> *const Atomic<Node<K, V>> {
        // SAFETY: `this` is live per the caller contract, so reading the
        // header and offsetting within the same allocation are in bounds.
        unsafe {
            let (_, tower_offset) = Self::layout((*this).height as usize);
            (this as *const u8).add(tower_offset) as *const Atomic<Node<K, V>>
        }
    }

    /// The node's tower slot at `level`.
    ///
    /// # Safety
    /// `this` must be live and `level < this.height`.
    unsafe fn tower<'a>(this: *const Node<K, V>, level: usize) -> &'a Atomic<Node<K, V>> {
        // SAFETY: `this` is live and `level < height` per the caller
        // contract; every slot in `0..height` was initialised by `create`.
        unsafe {
            debug_assert!(level < (*this).height as usize);
            &*Self::tower_base(this).add(level)
        }
    }

    /// Drops the key/value and frees the allocation.
    ///
    /// # Safety
    /// `this` must be live, created by [`create`](Self::create), and never
    /// used again.
    unsafe fn destroy(this: *mut Node<K, V>) {
        // SAFETY: `this` is live and uniquely owned per the caller
        // contract; the layout recomputed from the stored height matches
        // the one used by `create`.
        unsafe {
            let (layout, _) = Self::layout((*this).height as usize);
            std::ptr::drop_in_place(this);
            dealloc(this as *mut u8, layout);
        }
    }
}

/// Expected bytes of one `K → V` node as the list allocates it: the mean
/// of [`Node::layout`] over the heights `Writer::random_height` draws
/// (P(h) = ¾·¼^(h−1), the tail mass at `MAX_HEIGHT`; 1⅓ slots on
/// average), rounded to a whole byte.
pub(crate) fn expected_node_bytes<K, V>() -> usize {
    let size = |height: usize| Node::<K, V>::layout(height).0.size() as f64;
    // `tail` = P(height ≥ h).
    let mut tail = 1.0f64;
    let mut bytes = 0.0f64;
    for height in 1..MAX_HEIGHT {
        bytes += tail * 0.75 * size(height);
        tail *= 0.25;
    }
    (bytes + tail * size(MAX_HEIGHT)).round() as usize
}

/// The prefix one [`Writer::unlink_below`] cut off: `len ≥ 1` nodes linked
/// at level 0 from `first`. The last node's level-0 link still points at
/// the first survivor, so readers inside the prefix drain out along it;
/// [`free`](Self::free) follows exactly `len` links and never touches the
/// survivor.
struct Chain<K, V> {
    first: *mut Node<K, V>,
    len: usize,
}

impl<K, V> Chain<K, V> {
    /// Drops and frees the chain's `len` nodes.
    ///
    /// # Safety
    /// The chain must come from [`Writer::unlink_below`], no reader may
    /// still be inside it (its epoch grace period is over), and it is freed
    /// once.
    unsafe fn free(self) {
        let mut cur = self.first;
        for _ in 0..self.len {
            // SAFETY: `cur` is one of the chain's `len` nodes, live until
            // destroyed here: prefix links are never rewritten after the
            // unlink, so the level-0 walk from `first` visits exactly the
            // nodes `unlink_below` counted, each once. No other thread
            // can reach them once the grace period is over.
            unsafe {
                // ORDERING: Relaxed — the chain is exclusively owned here; its links were written before the unlink and never again.
                let next = Node::tower(cur, 0).load(Ordering::Relaxed, epoch::unprotected());
                Node::destroy(cur);
                cur = next.as_raw() as *mut Node<K, V>;
            }
        }
    }
}

/// One expiry sweep over `writers`: a single pin, one unlinked [`Chain`]
/// per list that had entries below `bound`, and one deferral that retires
/// every chain together — none when nothing expired. Returns the number of
/// evicted entries.
pub(crate) fn evict_all_below<'w, K, V>(
    writers: impl ExactSizeIterator<Item = &'w mut Writer<K, V>>,
    bound: &K,
) -> usize
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    let count = writers.len();
    let guard = epoch::pin();
    let mut chains = Vec::new();
    let mut evicted = 0usize;
    for writer in writers {
        if let Some(chain) = writer.unlink_below(bound, &guard) {
            evicted += chain.len;
            if chains.is_empty() {
                // One allocation per sweep, sized for every list at once.
                chains.reserve_exact(count);
            }
            chains.push(chain);
        }
    }
    if !chains.is_empty() {
        // SAFETY: every chain was just unlinked from its own list (no new
        // reader can reach it) and is retired exactly once, here; `guard`
        // is a real pin, so the frees wait for every reader that could
        // still be inside a prefix to unpin.
        unsafe {
            guard.defer_unchecked_nodes(evicted, move || {
                for chain in chains {
                    chain.free();
                }
            });
        }
    }
    evicted
}

struct Inner<K, V> {
    head: [Atomic<Node<K, V>>; MAX_HEIGHT],
    /// Highest level currently occupied (≥ 1 once non-empty). Searches
    /// start here instead of `MAX_HEIGHT`.
    height: AtomicUsize,
    len: AtomicUsize,
    /// Debug-build tripwire for the single-writer contract: held (true)
    /// while a mutating operation is in flight. The type system already
    /// enforces the discipline (`Writer` is unique and `!Sync`), so this
    /// only fires if unsafe code or a future refactor breaks it. Routed
    /// through `sync::uninstrumented` on purpose — it is instrumentation,
    /// not part of the protocol, and must not add schedule points under
    /// loom.
    #[cfg(debug_assertions)]
    write_active: crate::sync::uninstrumented::AtomicBool,
}

// SAFETY: the structure is a map of K→V reachable from multiple threads;
// readers only obtain shared references to keys/values, and reclamation is
// deferred through epochs. The same bounds a lock-based map would need.
unsafe impl<K: Send + Sync, V: Send + Sync> Send for Inner<K, V> {}
// SAFETY: as for Send above — shared access hands out only &K/&V, and
// unlinked nodes outlive every reader that can still see them.
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for Inner<K, V> {}

impl<K, V> Inner<K, V> {
    fn new() -> Self {
        Inner {
            head: std::array::from_fn(|_| Atomic::null()),
            height: AtomicUsize::new(1),
            len: AtomicUsize::new(0),
            #[cfg(debug_assertions)]
            write_active: crate::sync::uninstrumented::AtomicBool::new(false),
        }
    }
}

impl<K, V> Drop for Inner<K, V> {
    fn drop(&mut self) {
        // SAFETY: exclusive access — no readers or writer can exist when the
        // last Arc drops, so walking and freeing without pinning is sound.
        unsafe {
            let guard = epoch::unprotected();
            // ORDERING: Relaxed — Drop has exclusive access (last Arc); plain teardown walk.
            let mut cur = self.head[0].load(Ordering::Relaxed, guard);
            while !cur.is_null() {
                let raw = cur.as_raw() as *mut Node<K, V>;
                // ORDERING: Relaxed — as above: no concurrent readers or writer exist in Drop.
                let next = Node::tower(raw, 0).load(Ordering::Relaxed, guard);
                Node::destroy(raw);
                cur = next;
            }
        }
    }
}

/// Factory for SWMR skip lists. See the [module docs](self) for the
/// concurrency contract.
pub struct SwmrSkipList;

impl SwmrSkipList {
    /// Creates an empty list, returning its unique writer handle and an
    /// initial reader handle (clone the reader to share it further).
    #[allow(clippy::new_ret_no_self)] // factory type: handles ARE the API
    pub fn new<K, V>() -> (Writer<K, V>, Reader<K, V>)
    where
        K: Ord + Send + Sync + 'static,
        V: Send + Sync + 'static,
    {
        Self::with_seed(0x9E37_79B9_7F4A_7C15)
    }

    /// Creates an empty list with an explicit tower-height RNG seed
    /// (deterministic structure for tests and reproducible benches).
    pub fn with_seed<K, V>(seed: u64) -> (Writer<K, V>, Reader<K, V>)
    where
        K: Ord + Send + Sync + 'static,
        V: Send + Sync + 'static,
    {
        let inner = Arc::new(Inner::new());
        #[expect(
            clippy::indexing_slicing,
            reason = "from_fn index i < MAX_HEIGHT == head array length"
        )]
        let tail = std::array::from_fn(|i| &inner.head[i] as *const _);
        (
            Writer {
                inner: Arc::clone(&inner),
                rng: seed | 1,
                tail,
                max_key: None,
                _not_sync: PhantomData,
            },
            Reader { inner },
        )
    }
}

/// The unique mutating handle of one skip list.
pub struct Writer<K, V> {
    inner: Arc<Inner<K, V>>,
    rng: u64,
    /// The rightmost tower slot per level (the path a search for +∞ takes).
    /// Lets strictly-ascending inserts — the common case for streams whose
    /// disorder is far smaller than their retention — splice at the tail in
    /// O(height) without a search. Rebuilt after evictions.
    tail: [*const Atomic<Node<K, V>>; MAX_HEIGHT],
    /// The largest key ever inserted and still live (None when empty).
    max_key: Option<K>,
    // `Cell` makes Writer !Sync, so `&Writer` cannot be shared across
    // threads and the single-writer discipline cannot be broken by aliasing.
    _not_sync: PhantomData<std::cell::Cell<u8>>,
}

// SAFETY: the raw tail pointers target the head array inside the Arc'd
// Inner (stable address) or node towers in stable heap allocations that
// only the writer itself can free — sending the Writer moves the pointers
// with their sole user.
unsafe impl<K: Send + Sync, V: Send + Sync> Send for Writer<K, V> {}

/// A cloneable, shareable read-only handle of one skip list.
pub struct Reader<K, V> {
    inner: Arc<Inner<K, V>>,
}

impl<K, V> Clone for Reader<K, V> {
    fn clone(&self) -> Self {
        Reader {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// RAII half of the debug-build single-writer check: releases the
/// `write_active` flag when the mutating operation returns (or panics).
/// Holds its own `Arc` so the writer's fields stay freely borrowable
/// while the token is live.
#[cfg(debug_assertions)]
struct WriteToken<K, V> {
    inner: Arc<Inner<K, V>>,
}

#[cfg(debug_assertions)]
impl<K, V> Drop for WriteToken<K, V> {
    fn drop(&mut self) {
        // ORDERING: Release publishes the token holder's writes before the
        // guard reads false; pairs with the AcqRel compare_exchange in
        // `write_token()`.
        self.inner
            .write_active
            .store(false, crate::sync::uninstrumented::Ordering::Release);
    }
}

impl<K, V> Writer<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    /// Claims the debug-build write token, panicking if another mutating
    /// operation is already in flight on this list. That is unreachable
    /// through the safe API (one `!Sync` writer, `&mut self` mutators);
    /// the check exists to catch unsafe misuse and refactoring mistakes.
    #[cfg(debug_assertions)]
    fn write_token(&self) -> WriteToken<K, V> {
        use crate::sync::uninstrumented::Ordering as O;
        // ORDERING: AcqRel claim — Acquire sees the previous holder's
        // Release store in `WriteToken::drop`, Release publishes the claim
        // to the next claimant; failure Acquire for the assert's read.
        let claimed = self
            .inner
            .write_active
            .compare_exchange(false, true, O::AcqRel, O::Acquire)
            .is_ok();
        assert!(
            claimed,
            "single-writer contract violated: two mutating operations ran \
             concurrently on one SwmrSkipList"
        );
        WriteToken {
            inner: Arc::clone(&self.inner),
        }
    }
    /// xorshift64*; cheap and deterministic per writer.
    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Geometric tower height with p = 1/4 per extra level, capped at
    /// [`MAX_HEIGHT`] (paper Algorithm 2: "a new node with random height").
    fn random_height(&mut self) -> u8 {
        let mut bits = self.next_rand();
        let mut h = 1u8;
        while (h as usize) < MAX_HEIGHT && bits & 0b11 == 0 {
            h += 1;
            bits >>= BRANCHING_BITS;
        }
        h
    }

    /// Inserts `key → value`. Returns `false` (and drops `value`) if the key
    /// is already present; existing entries are never overwritten, matching
    /// the append-only tuple-store semantics of the engines.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        self.insert_traced(key, value).is_some()
    }

    /// Like [`insert`](Self::insert), additionally reporting the new node's
    /// address (`None` on duplicate key). The address feeds the cache
    /// simulator's write-traffic model.
    pub fn insert_traced(&mut self, key: K, value: V) -> Option<usize> {
        #[cfg(debug_assertions)]
        let _token = self.write_token();
        let height = self.random_height() as usize;
        // SAFETY: the writer needs no pin to walk its own list. This writer
        // is the only thread that retires nodes of this list (`unlink_below`
        // hands out the only chains), and it holds no node pointer across
        // its own retirement (`tail` is rebuilt before a chain leaves), so
        // every node reached here is linked, hence not retired, hence live.
        let guard = unsafe { epoch::unprotected() };
        // Predecessor tower slots per level (paper Algorithm 2's `pre`
        // array). Levels above the traversal keep the head slots.
        #[expect(
            clippy::indexing_slicing,
            reason = "from_fn index i < MAX_HEIGHT == head array length"
        )]
        let mut pre: [*const Atomic<Node<K, V>>; MAX_HEIGHT] =
            std::array::from_fn(|i| &self.inner.head[i] as *const _);

        if self.max_key.as_ref().is_some_and(|m| key > *m) || self.max_key.is_none() {
            // Tail fast path: a strictly-ascending key's predecessors are
            // exactly the rightmost slots at every level.
            pre[..].copy_from_slice(&self.tail);
        } else {
            // ORDERING: Relaxed — `height` is written only by this writer thread.
            let start = self
                .inner
                .height
                .load(Ordering::Relaxed)
                .max(height)
                .clamp(1, MAX_HEIGHT);

            // Writer-side traversal. `Relaxed` suffices: the writer reads
            // only pointers it previously stored itself (program order) —
            // this is the plain load of Algorithm 2 line 4.
            let mut tower: *const Atomic<Node<K, V>> = self.inner.head.as_ptr();
            let mut level = start - 1;
            loop {
                // SAFETY: `tower` has more than `level` slots: it is either
                // the head array (MAX_HEIGHT slots) or the tower of a node
                // we entered at a level ≥ `level` (so its height > level).
                let slot = unsafe { &*tower.add(level) };
                // ORDERING: Relaxed — single-writer reads its own prior stores; readers never write, so there is no remote store to pair with.
                let next = slot.load(Ordering::Relaxed, guard);
                // SAFETY: a linked node is live: only this writer retires
                // nodes, and only after unlinking them (see above).
                match unsafe { next.as_ref() } {
                    Some(node) if node.key < key => {
                        // SAFETY: `next` is live.
                        tower = unsafe { Node::tower_base(next.as_raw()) };
                    }
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "level starts below list_height ≤ MAX_HEIGHT and only decreases"
                    )]
                    other => {
                        if let Some(node) = other {
                            if node.key == key {
                                return None;
                            }
                        }
                        pre[level] = slot;
                        if level == 0 {
                            break;
                        }
                        level -= 1;
                    }
                }
            }
        }

        let new_max = self.max_key.as_ref().is_none_or(|m| key > *m);
        if new_max {
            self.max_key = Some(key.clone());
        }
        let node = Node::create(key, value, height as u8);
        let node_shared: Shared<Node<K, V>> = Shared::from(node as *const _);
        // Prepare the unpublished node's forward pointers (Relaxed: no other
        // thread can observe them yet) — Algorithm 2 lines 13–14.
        for (i, slot) in pre.iter().enumerate().take(height) {
            // SAFETY: `node` is fresh with `height` slots; `*slot` is a live
            // Atomic (head or a predecessor node's slot).
            unsafe {
                // ORDERING: Relaxed — the node is unpublished (Algorithm 2 lines 13-14); no reader can reach these slots until the Release store below.
                Node::tower(node, i)
                    .store((**slot).load(Ordering::Relaxed, guard), Ordering::Relaxed);
            }
        }
        // Publish bottom-up with Release — Algorithm 2 lines 15–16. After
        // the level-0 store the node is atomically visible.
        for slot in pre.iter().take(height) {
            // ORDERING: Release — publishes the fully-initialised node (Algorithm 2 lines 15-16); pairs with the Acquire loads in `Reader::pred_tower` and the range scans.
            // SAFETY: predecessor slots stay valid — we are the only writer.
            unsafe { (**slot).store(node_shared, Ordering::Release) };
        }
        // ORDERING: Relaxed load — `height` is written only by this writer thread.
        if height > self.inner.height.load(Ordering::Relaxed) {
            // ORDERING: Release — pairs with the Acquire `height` load in `Reader::pred_tower`, so a reader entering at the new level sees the published tower.
            self.inner.height.store(height, Ordering::Release);
        }
        // Maintain the rightmost-slot cache: the new node becomes the
        // rightmost at every level where it has no successor. (This also
        // happens on slow-path inserts — a tall node inserted below the
        // maximum key can still be the last node at its upper levels, and a
        // stale tail there would corrupt level order on the next tail
        // splice.)
        #[expect(
            clippy::indexing_slicing,
            reason = "i < height ≤ MAX_HEIGHT == tail array length"
        )]
        for i in 0..height {
            // SAFETY: `node` is live; tower slots live as long as the node.
            unsafe {
                // ORDERING: Relaxed — writer-private read of the just-published node's slot;
                // publication ordering was established by the Release store above.
                if Node::tower(node, i)
                    .load(Ordering::Relaxed, guard)
                    .is_null()
                {
                    self.tail[i] = Node::tower(node, i) as *const _;
                }
            }
        }
        // ORDERING: Relaxed — `len` is a monotonic counter read only by the
        // approximate `len()`; no synchronisation piggybacks on it.
        self.inner.len.fetch_add(1, Ordering::Relaxed);
        Some(node as usize)
    }

    /// Rebuilds the cached rightmost-slot path (after evictions, which may
    /// destroy nodes the tail pointed into). O(expected height · branching).
    fn rebuild_tail(&mut self) {
        // SAFETY: as in `insert_traced` — the writer walks only linked nodes
        // of its own list, and only it retires them.
        let guard = unsafe { epoch::unprotected() };
        // ORDERING: Relaxed — single-writer reads its own prior stores;
        // readers never write, so there is no remote store to pair with.
        #[expect(
            clippy::indexing_slicing,
            reason = "from_fn index i < MAX_HEIGHT == head/tail array length"
        )]
        if self.inner.head[0].load(Ordering::Relaxed, guard).is_null() {
            self.tail = std::array::from_fn(|i| &self.inner.head[i] as *const _);
            self.max_key = None;
            return;
        }
        // ORDERING: Relaxed — `height` is written only by this writer thread.
        let list_height = self
            .inner
            .height
            .load(Ordering::Relaxed)
            .clamp(1, MAX_HEIGHT);
        #[expect(
            clippy::indexing_slicing,
            reason = "i < MAX_HEIGHT loop bound == head/tail array length"
        )]
        for i in list_height..MAX_HEIGHT {
            self.tail[i] = &self.inner.head[i] as *const _;
        }
        let mut tower: *const Atomic<Node<K, V>> = self.inner.head.as_ptr();
        let mut level = list_height - 1;
        loop {
            // SAFETY: `tower` has more than `level` slots, as in `insert`.
            let slot = unsafe { &*tower.add(level) };
            // ORDERING: Relaxed — single-writer reads its own prior stores; readers never write, so there is no remote store to pair with.
            let next = slot.load(Ordering::Relaxed, guard);
            // SAFETY: writer-side pointers are valid (no concurrent frees).
            match unsafe { next.as_ref() } {
                Some(_) => {
                    // SAFETY: `next` is non-null (Some arm) and live.
                    tower = unsafe { Node::tower_base(next.as_raw()) };
                }
                #[expect(
                    clippy::indexing_slicing,
                    reason = "level < list_height ≤ MAX_HEIGHT == tail array length"
                )]
                None => {
                    self.tail[level] = slot;
                    if level == 0 {
                        break;
                    }
                    level -= 1;
                }
            }
        }
    }

    /// Unlinks and (deferred-)frees every entry with `key < bound`.
    /// Returns the number of evicted entries.
    ///
    /// This is the expiration path: keys are ordered, so expired tuples form
    /// a prefix, which is cut off in one step, retired in one deferral and
    /// freed after the current epoch's readers unpin.
    pub fn evict_below(&mut self, bound: &K) -> usize {
        evict_all_below(std::iter::once(self), bound)
    }

    /// Unlinks every entry with `key < bound` and returns them as one
    /// [`Chain`] (`None` when nothing expired); the caller retires it.
    ///
    /// The head tower is re-pointed at the first survivor per level with
    /// `Release` stores. Prefix nodes keep their forward pointers, so
    /// in-flight readers drain out of the prefix, and nothing rewrites them
    /// afterwards. The tail cache is rebuilt before returning, so the
    /// writer holds no pointer into the chain it hands out.
    fn unlink_below(&mut self, bound: &K, guard: &Guard) -> Option<Chain<K, V>> {
        #[cfg(debug_assertions)]
        let _token = self.write_token();
        // ORDERING: Relaxed — single-writer reads its own prior stores; readers never write, so there is no remote store to pair with.
        let old_first = self.inner.head[0].load(Ordering::Relaxed, guard);
        // SAFETY: a linked node is live, as in `insert_traced`.
        if unsafe { old_first.as_ref() }.is_none_or(|first| first.key >= *bound) {
            return None; // empty, or nothing expired
        }

        // ORDERING: Relaxed — `height` is written only by this writer thread.
        let list_height = self
            .inner
            .height
            .load(Ordering::Relaxed)
            .clamp(1, MAX_HEIGHT);
        for level in (0..list_height).rev() {
            // ORDERING: Relaxed — writer reads its own head slots; the unlink is published by the Release store below.
            #[expect(
                clippy::indexing_slicing,
                reason = "level < list_height ≤ MAX_HEIGHT == head array length"
            )]
            let mut n = self.inner.head[level].load(Ordering::Relaxed, guard);
            loop {
                // SAFETY: linked, hence live.
                match unsafe { n.as_ref() } {
                    Some(node) if node.key < *bound => {
                        // SAFETY: node is live and linked at `level`, so its
                        // height exceeds `level`.
                        let slot = unsafe { Node::tower(n.as_raw(), level) };
                        // ORDERING: Relaxed — single-writer reads its own prior stores; readers never write, so there is no remote store to pair with.
                        n = slot.load(Ordering::Relaxed, guard);
                    }
                    _ => break,
                }
            }
            // ORDERING: Release — unlinks the expired prefix; pairs with the reader-side Acquire head/tower loads so a reader entering afterwards cannot walk into the retired prefix.
            #[expect(
                clippy::indexing_slicing,
                reason = "level < list_height ≤ MAX_HEIGHT == head array length"
            )]
            self.inner.head[level].store(n, Ordering::Release);
        }

        // Count the prefix; it is unreachable from the head now, and its
        // links stay as they are until `Chain::free`.
        let mut len = 0usize;
        let mut n = old_first;
        // SAFETY: prefix nodes are live until the chain is retired and its
        // grace period ends; we stop at the first survivor.
        while let Some(node) = unsafe { n.as_ref() } {
            if node.key >= *bound {
                break;
            }
            // ORDERING: Relaxed — the prefix is already unreachable from the head; writer-private walk.
            // SAFETY: node is live and has a level-0 slot.
            n = unsafe { Node::tower(n.as_raw(), 0) }.load(Ordering::Relaxed, guard);
            len += 1;
        }
        // ORDERING: Relaxed — `len` is an approximate counter; see `insert_traced`.
        self.inner.len.fetch_sub(len, Ordering::Relaxed);
        // The tail path may run through the prefix; drop every pointer into
        // it before the chain leaves.
        self.rebuild_tail();
        Some(Chain {
            first: old_first.as_raw() as *mut Node<K, V>,
            len,
        })
    }

    /// A read handle sharing this list (the writer may also read through it).
    pub fn reader(&self) -> Reader<K, V> {
        Reader {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        // ORDERING: Relaxed — approximate counter; no ordering contract.
        self.inner.len.load(Ordering::Relaxed)
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Highest occupied tower level. Diagnostic; used by the structural
    /// tests (including the loom model checks) to pick seeds that produce
    /// tall towers.
    pub fn current_height(&self) -> usize {
        // ORDERING: Relaxed — diagnostic read; no ordering contract.
        self.inner.height.load(Ordering::Relaxed)
    }
}

impl<K, V> Reader<K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    /// Number of live entries (approximate under concurrent writes).
    pub fn len(&self) -> usize {
        // ORDERING: Relaxed — approximate under concurrent writes by contract.
        self.inner.len.load(Ordering::Relaxed)
    }

    /// Whether the list is empty (approximate under concurrent writes).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Descends to the last node with `key < target` and returns its tower
    /// base pointer (or the head tower). Reader-side traversal uses
    /// `Acquire` loads — paper Algorithm 1.
    ///
    /// A stale (smaller) `height` read only costs extra hops at the top —
    /// correctness never depends on it because every node is linked at
    /// level 0.
    fn pred_tower(&self, target: &K, guard: &Guard) -> *const Atomic<Node<K, V>> {
        let mut tower: *const Atomic<Node<K, V>> = self.inner.head.as_ptr();
        // ORDERING: Acquire — pairs with the writer's Release `height` store in `insert_traced`, so towers at the entry level are already published.
        let list_height = self
            .inner
            .height
            .load(Ordering::Acquire)
            .clamp(1, MAX_HEIGHT);
        let mut level = list_height - 1;
        loop {
            // SAFETY: `tower` has more than `level` slots (head array or a
            // node entered at a level ≥ `level`).
            let slot = unsafe { &*tower.add(level) };
            // ORDERING: Acquire — pairs with the writer's Release publication in `insert_traced` and prefix unlink in `unlink_below`, so the node read here is fully initialised.
            let next = slot.load(Ordering::Acquire, guard);
            // SAFETY: epoch-protected pointer, valid while `guard` is pinned.
            match unsafe { next.as_ref() } {
                Some(node) if node.key < *target => {
                    // SAFETY: `next` is live.
                    tower = unsafe { Node::tower_base(next.as_raw()) };
                }
                _ => {
                    if level == 0 {
                        return tower;
                    }
                    level -= 1;
                }
            }
        }
    }

    /// Looks up `key` and applies `f` to its value. Returns `None` if the
    /// key is absent. (Algorithm 1, exact-match form.)
    pub fn get_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        let guard = epoch::pin();
        let tower = self.pred_tower(key, &guard);
        // ORDERING: Acquire — pairs with the writer's Release publication in `insert_traced` and prefix unlink in `unlink_below`, so the node read here is fully initialised.
        // SAFETY: every tower has ≥ 1 slot.
        let next = unsafe { &*tower }.load(Ordering::Acquire, &guard);
        // SAFETY: epoch-protected.
        match unsafe { next.as_ref() } {
            Some(node) if node.key == *key => Some(f(&node.value)),
            _ => None,
        }
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.get_with(key, |_| ()).is_some()
    }

    /// Clones out the value stored under `key`.
    pub fn get_cloned(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.get_with(key, V::clone)
    }

    /// Visits every entry with `lo ≤ key ≤ hi` in ascending key order,
    /// passing the entry and its node address (the address feeds the cache
    /// simulator; ignore it otherwise). Returns the number visited.
    ///
    /// This is the *time-travel* read: the window boundary is located in
    /// `O(log n)` and only in-range entries are touched.
    pub fn for_each_range_addr(&self, lo: &K, hi: &K, mut f: impl FnMut(&K, &V, usize)) -> usize {
        if hi < lo {
            return 0;
        }
        let guard = epoch::pin();
        let tower = self.pred_tower(lo, &guard);
        // ORDERING: Acquire — pairs with the writer's Release publication in `insert_traced` and prefix unlink in `unlink_below`, so the node read here is fully initialised.
        // SAFETY: ≥ 1 slot; epoch-protected loads below.
        let mut cur = unsafe { &*tower }.load(Ordering::Acquire, &guard);
        let mut visited = 0usize;
        // SAFETY: `cur` is epoch-protected while `guard` lives.
        while let Some(node) = unsafe { cur.as_ref() } {
            if node.key > *hi {
                break;
            }
            f(&node.key, &node.value, cur.as_raw() as usize);
            visited += 1;
            // SAFETY: `cur` is live (just visited) and every node has a
            // ORDERING: Acquire — pairs with the writer's Release publication in `insert_traced` and prefix unlink in `unlink_below`, so the node read here is fully initialised.
            // level-0 slot.
            cur = unsafe { Node::tower(cur.as_raw(), 0) }.load(Ordering::Acquire, &guard);
        }
        visited
    }

    /// Visits every entry with `lo ≤ key ≤ hi` in ascending key order.
    /// Returns the number visited.
    pub fn for_each_range(&self, lo: &K, hi: &K, mut f: impl FnMut(&K, &V)) -> usize {
        self.for_each_range_addr(lo, hi, |k, v, _| f(k, v))
    }

    /// Visits every entry in ascending key order.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) -> usize {
        let guard = epoch::pin();
        // ORDERING: Acquire — pairs with the writer's Release publication in `insert_traced` and prefix unlink in `unlink_below`, so the node read here is fully initialised.
        let mut cur = self.inner.head[0].load(Ordering::Acquire, &guard);
        let mut visited = 0usize;
        // SAFETY: `cur` is epoch-protected while `guard` lives.
        while let Some(node) = unsafe { cur.as_ref() } {
            f(&node.key, &node.value);
            visited += 1;
            // SAFETY: `cur` is live (just visited) and every node has a
            // ORDERING: Acquire — pairs with the writer's Release publication in `insert_traced` and prefix unlink in `unlink_below`, so the node read here is fully initialised.
            // level-0 slot.
            cur = unsafe { Node::tower(cur.as_raw(), 0) }.load(Ordering::Acquire, &guard);
        }
        visited
    }

    /// The smallest key, cloned, if any.
    pub fn first_key(&self) -> Option<K>
    where
        K: Clone,
    {
        let guard = epoch::pin();
        // ORDERING: Acquire — pairs with the writer's Release publication in `insert_traced` and prefix unlink in `unlink_below`, so the node read here is fully initialised.
        let first = self.inner.head[0].load(Ordering::Acquire, &guard);
        // SAFETY: epoch-protected pointer.
        unsafe { first.as_ref() }.map(|n| n.key.clone())
    }

    /// Collects the whole list into a vector (tests / diagnostics).
    pub fn collect_all(&self) -> Vec<(K, V)>
    where
        K: Clone,
        V: Clone,
    {
        let mut out = Vec::with_capacity(self.len());
        self.for_each(|k, v| out.push((k.clone(), v.clone())));
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let (mut w, r) = SwmrSkipList::new::<u64, String>();
        assert!(w.insert(5, "five".into()));
        assert!(w.insert(1, "one".into()));
        assert!(w.insert(9, "nine".into()));
        assert!(!w.insert(5, "dup".into()));
        assert_eq!(w.len(), 3);
        assert_eq!(r.get_cloned(&5).unwrap(), "five");
        assert_eq!(r.get_cloned(&1).unwrap(), "one");
        assert!(r.get_cloned(&2).is_none());
    }

    #[test]
    fn iteration_is_sorted() {
        let (mut w, r) = SwmrSkipList::new::<i64, i64>();
        for k in [7, 3, 9, 1, 5, 8, 2, 6, 4, 0] {
            assert!(w.insert(k, k * 10));
        }
        let all = r.collect_all();
        let keys: Vec<i64> = all.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (0..10).collect::<Vec<_>>());
        for (k, v) in all {
            assert_eq!(v, k * 10);
        }
    }

    #[test]
    fn range_scan_is_inclusive() {
        let (mut w, r) = SwmrSkipList::new::<i64, ()>();
        for k in 0..100 {
            w.insert(k * 2, ()); // evens only
        }
        let mut seen = Vec::new();
        let n = r.for_each_range(&10, &20, |k, _| seen.push(*k));
        assert_eq!(seen, vec![10, 12, 14, 16, 18, 20]);
        assert_eq!(n, 6);
        // Bounds between stored keys
        seen.clear();
        r.for_each_range(&11, &19, |k, _| seen.push(*k));
        assert_eq!(seen, vec![12, 14, 16, 18]);
        // Inverted range is empty
        assert_eq!(r.for_each_range(&20, &10, |_, _| panic!("no visit")), 0);
    }

    #[test]
    fn evict_below_removes_prefix_only() {
        let (mut w, r) = SwmrSkipList::new::<i64, i64>();
        for k in 0..50 {
            w.insert(k, k);
        }
        assert_eq!(w.evict_below(&20), 20);
        assert_eq!(w.len(), 30);
        assert_eq!(r.first_key(), Some(20));
        assert!(!r.contains(&19));
        assert!(r.contains(&20));
        // Idempotent
        assert_eq!(w.evict_below(&20), 0);
        // Evict everything
        assert_eq!(w.evict_below(&1000), 30);
        assert!(w.is_empty());
        assert_eq!(r.first_key(), None);
    }

    #[test]
    fn evict_on_empty_list() {
        let (mut w, _r) = SwmrSkipList::new::<i64, ()>();
        assert_eq!(w.evict_below(&5), 0);
    }

    #[test]
    fn insert_after_evict_reuses_range() {
        let (mut w, r) = SwmrSkipList::new::<i64, i64>();
        for k in 0..10 {
            w.insert(k, k);
        }
        w.evict_below(&10);
        // Out-of-order (late) tuples below the evicted bound may still come.
        assert!(w.insert(5, 55));
        assert_eq!(r.get_cloned(&5), Some(55));
        assert_eq!(r.first_key(), Some(5));
    }

    #[test]
    fn tower_heights_are_bounded_and_varied() {
        let (mut w, _r) = SwmrSkipList::with_seed::<u64, ()>(42);
        let mut hist = [0usize; MAX_HEIGHT + 1];
        for _ in 0..10_000 {
            let h = w.random_height() as usize;
            assert!((1..=MAX_HEIGHT).contains(&h));
            hist[h] += 1;
        }
        // Roughly geometric: height 1 dominates, some height ≥ 3 exist.
        assert!(hist[1] > 6_000);
        assert!(hist[3..].iter().sum::<usize>() > 100);
    }

    #[test]
    fn values_with_heap_contents_drop_cleanly() {
        // Exercises drop_in_place through destroy (String key + Vec value).
        let (mut w, r) = SwmrSkipList::new::<String, Vec<u8>>();
        for i in 0..100 {
            w.insert(format!("key-{i:03}"), vec![i as u8; 100]);
        }
        assert_eq!(w.evict_below(&"key-050".to_string()), 50);
        assert_eq!(r.len(), 50);
        assert_eq!(r.first_key().unwrap(), "key-050");
        drop(w);
        drop(r); // frees everything; run under miri/asan for verification
        drain_epoch_garbage(); // evicted nodes, for the ASan leak pass
    }

    /// Drains deferred epoch garbage so the leak-checking ASan pass (see
    /// scripts/sanitize.sh) ends with nothing queued. Bounded: another
    /// test's transient pin can stall an epoch advance, so retry.
    fn drain_epoch_garbage() {
        for _ in 0..1000 {
            epoch::pin().flush();
            std::thread::yield_now();
        }
    }

    use std::sync::atomic::{AtomicUsize as Count, Ordering as O};

    /// A value whose `Drop` counts itself and scrambles a canary, so a test
    /// sees exactly which nodes a chain freed, and a reader that meets a
    /// reclaimed node fails [`check`](Self::check) even without a sanitizer.
    pub(crate) struct Canary {
        a: u64,
        b: u64,
        drops: Arc<Count>,
    }

    const MAGIC: u64 = 0xDEAD_BEEF_DEAD_BEEF;

    impl Canary {
        pub(crate) fn new(n: u64, drops: &Arc<Count>) -> Self {
            Canary {
                a: n,
                b: n ^ MAGIC,
                drops: Arc::clone(drops),
            }
        }

        pub(crate) fn check(&self) {
            assert_eq!(self.a ^ MAGIC, self.b, "reader saw a reclaimed node");
        }
    }

    impl Drop for Canary {
        fn drop(&mut self) {
            // SAFETY: plain writes to our own fields; volatile so the
            // scramble is not elided before the node's memory is freed.
            unsafe {
                std::ptr::write_volatile(&mut self.a, u64::MAX);
                std::ptr::write_volatile(&mut self.b, 0);
            }
            self.drops.fetch_add(1, O::SeqCst);
        }
    }

    /// Flushes until `drops` reads `want` (bounded: another test's pin can
    /// stall an epoch advance for a while), then returns what it reads.
    pub(crate) fn drops_after_flush(drops: &Count, want: usize) -> usize {
        for _ in 0..100_000 {
            if drops.load(O::SeqCst) == want {
                break;
            }
            epoch::pin().flush();
            std::thread::yield_now();
        }
        drops.load(O::SeqCst)
    }

    /// Evicts `below` keys of a tall list (the seed of
    /// `list_height_grows_and_search_still_finds_everything`) and checks
    /// that the chain frees exactly the prefix, once: the drop count equals
    /// the evicted count after the grace period, and every survivor still
    /// scans in order.
    fn evict_tall_prefix(n: u64, below: u64) {
        let drops = Arc::new(Count::new(0));
        let (mut w, r) = SwmrSkipList::with_seed::<u64, Canary>(1234);
        for k in 0..n {
            assert!(w.insert(k, Canary::new(k, &drops)));
        }
        assert!(w.current_height() > 3, "height {}", w.current_height());
        let evicted = w.evict_below(&below);
        assert_eq!(evicted, below.min(n) as usize);
        assert_eq!(
            drops_after_flush(&drops, evicted),
            evicted,
            "chain freed the wrong nodes"
        );
        let mut next = below.min(n);
        let visited = r.for_each(|k, c| {
            c.check();
            assert_eq!(*k, next, "survivor missing or out of order");
            next += 1;
        });
        assert_eq!(next, n);
        assert_eq!(visited, w.len());
        assert_eq!(r.len(), (n - below.min(n)) as usize);
        drop(w);
        drop(r);
        assert_eq!(
            drops.load(O::SeqCst),
            n as usize,
            "teardown freed the rest once"
        );
    }

    #[test]
    fn drop_chain_frees_exactly_the_prefix_of_a_tall_list() {
        const N: u64 = if cfg!(miri) { 2_000 } else { 20_000 };
        evict_tall_prefix(N, N / 2 + 7);
    }

    #[test]
    fn drop_chain_frees_a_whole_list() {
        const N: u64 = if cfg!(miri) { 2_000 } else { 20_000 };
        evict_tall_prefix(N, u64::MAX);
    }

    #[test]
    fn concurrent_readers_during_writes_and_eviction() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as O};
        let (mut w, r) = SwmrSkipList::new::<u64, u64>();
        let stop = Arc::new(AtomicBool::new(false));

        let readers: Vec<_> = (0..3)
            .map(|_| {
                let r = r.clone();
                let stop = Arc::clone(&stop);
                let scans = Arc::new(AtomicU64::new(0));
                let scans2 = Arc::clone(&scans);
                let handle = std::thread::spawn(move || {
                    while !stop.load(O::Relaxed) {
                        // Invariant: scans are sorted and values match keys.
                        let mut last = None;
                        r.for_each(|k, v| {
                            assert_eq!(*v, k * 7);
                            if let Some(prev) = last {
                                assert!(*k > prev, "unsorted scan");
                            }
                            last = Some(*k);
                        });
                        scans2.fetch_add(1, O::Relaxed);
                    }
                });
                (handle, scans)
            })
            .collect();

        // Shrunk under Miri (it runs threads, just much more slowly).
        const BATCHES: u64 = if cfg!(miri) { 6 } else { 50 };
        const PER_BATCH: u64 = if cfg!(miri) { 40 } else { 200 };
        for batch in 0u64..BATCHES {
            for i in 0..PER_BATCH {
                let k = batch * PER_BATCH + i;
                w.insert(k, k * 7);
            }
            // Expire everything older than two batches.
            if batch >= 2 {
                w.evict_below(&((batch - 1) * PER_BATCH));
            }
        }
        // The writer can outrun the readers (reclamation is amortised off
        // the read path, so writes are fast); keep the — now static — list
        // readable until every reader has finished at least one full scan,
        // then stop. Bounded so a wedged reader still fails the test.
        for _ in 0..1_000_000 {
            if readers.iter().all(|(_, s)| s.load(O::Relaxed) > 0) {
                break;
            }
            std::thread::yield_now();
        }
        stop.store(true, O::Relaxed);
        for (h, scans) in readers {
            h.join().unwrap();
            assert!(scans.load(O::Relaxed) > 0, "reader never completed a scan");
        }
        // 2 surviving batches
        assert_eq!(w.len(), 2 * PER_BATCH as usize);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn single_writer_token_trips_on_overlap() {
        // The safe API cannot reach this state (unique !Sync writer with
        // &mut mutators); claim the token directly to prove the runtime
        // tripwire fires if unsafe code ever breaks the discipline.
        let (w, _r) = SwmrSkipList::new::<u64, u64>();
        let _held = w.write_token();
        let second = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _overlap = w.write_token();
        }));
        assert!(second.is_err(), "overlapping write must panic");
        drop(_held);
        // Token released on drop: the next claim succeeds again.
        let _after = w.write_token();
    }

    #[test]
    fn drop_releases_all_nodes() {
        // Smoke test that Drop walks the list without crashing; run under
        // miri/asan in CI to validate no leaks or UAF.
        let (mut w, r) = SwmrSkipList::new::<u64, Vec<u8>>();
        for k in 0..1000 {
            w.insert(k, vec![0u8; 32]);
        }
        drop(w);
        assert_eq!(r.len(), 1000);
        drop(r);
    }

    #[test]
    fn slow_path_tall_inserts_keep_level_order() {
        // Regression: a tall node inserted below the max must take over the
        // rightmost-slot cache at its upper levels; otherwise the next
        // in-order insert splices behind it, breaking level order and
        // letting eviction free reachable nodes (use-after-free).
        let (mut w, r) = SwmrSkipList::with_seed::<i64, i64>(0xBADF00D);
        let mut next_key = 0i64;
        const ROUNDS: i64 = if cfg!(miri) { 150 } else { 2000 };
        for round in 0..ROUNDS {
            // Mostly ascending inserts...
            for _ in 0..4 {
                next_key += 2;
                w.insert(next_key, next_key);
            }
            // ...with an out-of-order insert up to ~40 behind the max
            // (odd keys never collide with the ascending evens).
            let lag = 1 + (round * 7) % 40;
            w.insert(next_key - lag, next_key - lag);
            // Periodic eviction forces tail rebuilds and node frees.
            if round % 50 == 49 {
                w.evict_below(&(next_key - 100));
            }
            if round % 200 == 199 {
                // Full order check.
                let mut last = i64::MIN;
                r.for_each(|k, _| {
                    assert!(*k > last, "order violated: {k} after {last}");
                    last = *k;
                });
            }
        }
    }

    #[test]
    fn list_height_grows_and_search_still_finds_everything() {
        let (mut w, r) = SwmrSkipList::with_seed::<u64, u64>(1234);
        const N: u64 = if cfg!(miri) { 4_000 } else { 50_000 };
        for k in 0..N {
            w.insert(k, k);
        }
        assert!(w.current_height() > 3, "height {}", w.current_height());
        for k in (0..N).step_by(997) {
            assert_eq!(r.get_cloned(&k), Some(k));
        }
        // Evicting everything leaves a consistent (tall but empty) list.
        assert_eq!(w.evict_below(&u64::MAX), N as usize);
        assert!(r.collect_all().is_empty());
        assert!(w.insert(1, 1));
        assert_eq!(r.get_cloned(&1), Some(1));
    }
}
