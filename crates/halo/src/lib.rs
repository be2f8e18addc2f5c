//! # halo — halo analysis algorithms
//!
//! The analysis tasks the paper's workflows orchestrate, written once against
//! the `dpp` data-parallel layer:
//!
//! * **FOF halo identification** (§3.3.1) — one balanced k-d tree over
//!   packed coordinate columns ([`kdtree::KdTree`], [`columns::Coords`])
//!   with bounding-box pruning ([`fof::fof_kdtree`]), a periodic
//!   linked-cell engine ([`fof::fof_grid`]), and the rank-parallel driver
//!   with overload regions ([`parallel::parallel_fof`]). The same tree
//!   serves the subhalo densities and the A* center bounds; the row-layout
//!   reference traversal lives in the `conformance` crate.
//! * **MBP center finding** (§3.3.2) — the data-parallel O(n²) kernel
//!   ([`mbp::mbp_brute`]) and the serial A* baseline ([`mbp::mbp_astar`]).
//! * **Spherical overdensity masses** ([`so::so_mass`]).
//! * **Subhalo finding** ([`subhalo::find_subhalos`]) — k-NN SPH densities,
//!   density-ordered candidate growth, iterative unbinding.
//! * **Mass-function modeling** ([`massfn::MassFunction`]) — the calibrated
//!   population sampler behind the Q-Continuum-scale projections.

#![warn(missing_docs)]
// 3-vector component loops read better indexed; the lint fires on them.
#![allow(clippy::needless_range_loop)]

pub mod catalog;
pub mod columns;
pub mod fof;
pub mod kdtree;
pub mod massfn;
pub mod mbp;
pub mod parallel;
pub mod properties;
pub mod so;
pub mod subhalo;
pub mod tracking;
pub mod unionfind;

pub use catalog::{unwrap_positions, Halo, HaloCatalog};
pub use columns::Coords;
pub use fof::{fof_brute, fof_grid, fof_kdtree, members_by_group};
pub use kdtree::{Aabb, KdTree};
pub use massfn::{fit_power_law, FittedMassFunction, MassFunction};
pub use mbp::{
    center_time_titan_gpu, mbp_astar, mbp_brute, mbp_brute_cols, potential_at, potential_of,
    MbpResult,
};
pub use parallel::{fof_and_centers_timed, parallel_fof, FofConfig, RankTiming};
pub use properties::{halo_properties, HaloProperties};
pub use so::{so_mass, SoResult};
pub use subhalo::{find_subhalos, local_densities, Subhalo, SubhaloParams};
pub use tracking::{track_halos, HaloLink, TrackingResult};
