//! ISP flow substrate.
//!
//! Models the Merit-style measurement plane the paper joins its
//! aggressive-hitter lists against:
//!
//! * [`record`] — the flow key and flow record every other module
//!   trades in;
//! * [`v9`] — the template-based NetFlow v9 wire format (RFC 3954),
//!   with a template-learning decoder; the engine loops every exported
//!   record through it;
//! * [`sampler`] — deterministic 1:N systematic packet sampling, as
//!   configured on the paper's routers (1:1000), with the inverse
//!   estimator used when reporting totals;
//! * [`cache`] — a flow cache with active and inactive timeouts that
//!   turns sampled packets into flow records;
//! * [`router`] — border routers and the ISP model: peering-policy
//!   ingress assignment (why router-1 sees more scanner traffic than
//!   router-3), ingress/egress classification, and the content-cache
//!   bypass that explains the Merit-vs-CU impact gap.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod record;
pub mod router;
pub mod sampler;
pub mod v9;
