//! Threat-intelligence substrate.
//!
//! Everything the paper joins its hitter lists against that is *metadata
//! about IPs* rather than traffic:
//!
//! * [`asn`] — an IP → (ASN, organization, AS type, country) registry
//!   with longest-prefix matching, used for the origin tables;
//! * [`acked`] — the "Acknowledged Scanners" list: research organizations
//!   that disclose their scanning, matched by exact IP or by reverse-DNS
//!   keyword (the paper's two-stage match, Table 6);
//! * [`rdns`] — a reverse-DNS table and keyword matcher;
//! * [`greynoise`] — a GreyNoise-style distributed honeypot: sensors
//!   placed around the address space, per-source behavioral profiles, a
//!   rule-based tagger emitting the paper's tag vocabulary (Table 9),
//!   and benign/malicious/unknown classification (Figure 6 left).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acked;
pub mod asn;
pub mod greynoise;
pub mod rdns;
