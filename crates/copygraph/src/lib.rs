//! Copy graphs, propagation trees and backedge computation.
//!
//! Section 1.1 of the paper defines the *copy graph*: vertices are sites,
//! with an edge `si → sj` iff some item has its primary copy at `si` and a
//! secondary copy at `sj`. Everything the DAG(WT), DAG(T) and BackEdge
//! protocols need to know about data placement is derived here:
//!
//! * [`placement::DataPlacement`] — which site holds the primary copy of
//!   each item and where its replicas live;
//! * [`graph::CopyGraph`] — the induced copy graph, with edge weights
//!   (number of items propagated along each edge), acyclicity testing and
//!   topological orders;
//! * [`tree::PropagationTree`] — the tree `T` of §2 with the *ancestor
//!   property* (if `sj` is a child of `si` in the copy graph then `sj` is a
//!   descendant of `si` in `T`), in both the chain form the paper's
//!   prototype used and a general branching form;
//! * [`backedge::BackEdgeSet`] — minimal backedge sets (§4) and the greedy
//!   weighted feedback-arc-set heuristic of §4.2 (the exact problem is
//!   NP-hard [GJ79]).

#![warn(missing_docs)]

pub mod backedge;
pub mod graph;
pub mod placement;
pub mod tree;

pub use backedge::BackEdgeSet;
pub use graph::CopyGraph;
pub use placement::{DataPlacement, SpecError};
pub use tree::PropagationTree;
