//! Packet substrate for the aggressive-scanners reproduction.
//!
//! This crate implements, from scratch, everything the measurement pipeline
//! needs to speak raw IPv4: zero-copy header parsing and owned header
//! builders for IPv4, TCP, UDP and ICMP; the classic libpcap file format
//! over raw IP (reader and writer, both endiannesses); CIDR prefixes and a
//! fast prefix-set for dark-space membership tests; and the wire-level
//! fingerprints of the scanning tools the paper attributes traffic to
//! (ZMap, Masscan, Mirai); and the keyed fast hasher ([`hash`]) every
//! crate's private per-packet maps are built on.
//!
//! The design follows the smoltcp school: explicit buffers, no hidden
//! allocation on the parse path, exhaustive error enums, and owned
//! "repr" structs that can be emitted back to bytes so every parser is
//! testable by roundtrip.
//!
//! # Quick example
//!
//! ```
//! use ah_net::packet::{PacketMeta, Transport};
//! use ah_net::ipv4::Ipv4Addr4;
//!
//! // Build a TCP-SYN probe like a scanner would, serialize it, parse it back.
//! let meta = PacketMeta::tcp_syn(
//!     ah_net::time::Ts::from_secs(1),
//!     Ipv4Addr4::new(198, 51, 100, 7),
//!     Ipv4Addr4::new(192, 0, 2, 1),
//!     44321,
//!     6379,
//! );
//! let bytes = meta.to_bytes();
//! let parsed = PacketMeta::parse_ip(&bytes, meta.ts).unwrap();
//! assert_eq!(parsed.dst_port(), Some(6379));
//! assert!(matches!(parsed.transport, Transport::Tcp { .. }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
pub mod error;
pub mod fingerprint;
pub mod hash;
pub mod icmp;
pub mod ipv4;
pub mod packet;
pub mod pcap;
pub mod prefix;
pub mod tcp;
pub mod time;
pub mod udp;
