//! `lkk-kokkos`: a Kokkos-like performance-portability layer in Rust.
//!
//! This crate reproduces, in safe-by-default Rust, the abstractions the
//! paper's §3 describes as the foundation of the LAMMPS KOKKOS package:
//!
//! * [`view`] — multi-dimensional arrays ([`View`]) with run-time
//!   selectable data layout ([`Layout::Right`] for hosts,
//!   [`Layout::Left`] for devices), the "transparent data layout
//!   adjustment" that §4.1 credits for portable neighbor-list access
//!   patterns.
//! * [`dual_view`] — [`DualView`]: a host/device mirror pair with
//!   modify/sync tracking, so `sync()` only moves data when the other
//!   space actually changed it (§3.2). Transfer volumes are recorded so
//!   the GPU-package-style offload ablation can account for them.
//! * [`scatter_view`] — [`ScatterView`]: write-conflict deconfliction by
//!   thread-atomic operations, data duplication, or plain sequential
//!   accumulation (§3.2), selectable per execution space.
//! * [`exec`] — execution spaces: [`Space::Serial`], [`Space::Threads`]
//!   (rayon), and the *simulated* GPU space that executes functionally
//!   on host threads while logging kernel launches and event counts for
//!   the `lkk-gpusim` performance model.
//! * [`policy`] / [`team`] — `RangePolicy` (flat) and `TeamPolicy`
//!   (hierarchical league/team parallelism, §3.3).
//! * [`parts`] — an exclusively borrowed output cut into one part per
//!   work item, for the `*_parts` dispatches: §4.1's own-row writes,
//!   checked by the compiler, and a `ScatterView`'s per-thread handle.
//! * [`atomic`] — an [`AtomicF64`] built on `AtomicU64` CAS, the
//!   building block for thread-atomic force accumulation, and a view of
//!   a `&mut [f64]` as shared atomic cells.
//!
//! `unsafe` lives here and in the rayon shim only (every other crate
//! forbids it): the disjoint-parts handles, the atomic-cell view, the
//! `ScatterView` copies, the ISA seam and the counting allocator, each
//! block with its `SAFETY` argument.
//! * [`isa`] — one kernel source instantiated per instruction set: an
//!   `#[inline(always)]` body run at the baseline or under AVX2 (the
//!   same bits either way), picked from what the CPU reports.
//! * [`profile`] — the Kokkos-Tools-style profiling layer: nested named
//!   regions with RAII guards, kernel launch/stats hooks fired from the
//!   dispatch layer, host↔device transfer accounting, and a subscriber
//!   registry mirroring the whole event stream to any registered
//!   [`lkk_gpusim::ProfileSubscriber`].
//! * `alloc_gate` (debug builds) — a counting global allocator and the
//!   dispatch depth it reads: the zero-allocation gate on kernels.

#[cfg(debug_assertions)]
pub mod alloc_gate;
pub mod atomic;
pub mod dual_view;
pub mod exec;
pub mod isa;
pub mod parts;
pub mod policy;
pub mod profile;
pub mod scatter_view;
pub mod team;
pub mod view;

pub use atomic::AtomicF64;
pub use dual_view::DualView;
pub use exec::{force_sequential, set_force_sequential, DeviceCtx, Space};
pub use parts::RowMut;
pub use policy::TeamPolicy;
pub use profile::{
    begin_region, current_region, register_subscriber, unregister_subscriber, KernelLog,
    RegionGuard, SubscriberId,
};
pub use scatter_view::{ScatterAccess, ScatterMode, ScatterView};
pub use team::Team;
pub use view::{Layout, Triples, View, View1, View2, View3};
