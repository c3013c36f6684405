//! Error types for road-network construction and queries.

use crate::ids::{NodeId, SegmentId};
use std::error::Error;
use std::fmt;

/// Errors produced while building or querying a road network.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RnetError {
    /// A referenced node id is out of range.
    UnknownNode(NodeId),
    /// A referenced segment id is out of range.
    UnknownSegment(SegmentId),
    /// A segment was declared with identical endpoints.
    SelfLoop(NodeId),
    /// A segment's declared length is shorter than the straight-line
    /// distance between its endpoints.
    LengthShorterThanChord {
        /// Offending segment.
        segment: SegmentId,
        /// Declared polyline length in metres.
        declared: f64,
        /// Straight-line (chord) distance in metres.
        chord: f64,
    },
    /// A segment's speed limit is not strictly positive.
    NonPositiveSpeed(SegmentId),
    /// A segment's length or speed limit is NaN or infinite, or one of
    /// its endpoints has a NaN or infinite coordinate.
    NonFiniteSegment {
        /// Offending segment.
        segment: SegmentId,
        /// Declared polyline length in metres.
        length: f64,
        /// Declared speed limit in m/s.
        speed_limit: f64,
    },
    /// No path exists between the requested nodes.
    NoPath {
        /// Source junction.
        from: NodeId,
        /// Target junction.
        to: NodeId,
    },
    /// The network has no nodes, so the requested operation is undefined.
    EmptyNetwork,
}

impl fmt::Display for RnetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RnetError::UnknownNode(n) => write!(f, "unknown node {n}"),
            RnetError::UnknownSegment(s) => write!(f, "unknown segment {s}"),
            RnetError::SelfLoop(n) => write!(f, "segment endpoints are both {n}"),
            RnetError::LengthShorterThanChord {
                segment,
                declared,
                chord,
            } => write!(
                f,
                "segment {segment} length {declared:.2}m is shorter than its chord {chord:.2}m"
            ),
            RnetError::NonPositiveSpeed(s) => {
                write!(f, "segment {s} speed limit must be positive")
            }
            RnetError::NonFiniteSegment {
                segment,
                length,
                speed_limit,
            } => write!(
                f,
                "segment {segment} is not finite (length {length}m, speed limit {speed_limit}m/s, or an endpoint position)"
            ),
            RnetError::NoPath { from, to } => write!(f, "no path from {from} to {to}"),
            RnetError::EmptyNetwork => write!(f, "road network has no nodes"),
        }
    }
}

impl Error for RnetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_for_all_variants() {
        let variants = [
            RnetError::UnknownNode(NodeId::new(1)),
            RnetError::UnknownSegment(SegmentId::new(2)),
            RnetError::SelfLoop(NodeId::new(3)),
            RnetError::LengthShorterThanChord {
                segment: SegmentId::new(4),
                declared: 1.0,
                chord: 2.0,
            },
            RnetError::NonPositiveSpeed(SegmentId::new(5)),
            RnetError::NonFiniteSegment {
                segment: SegmentId::new(6),
                length: f64::NAN,
                speed_limit: 13.9,
            },
            RnetError::NoPath {
                from: NodeId::new(0),
                to: NodeId::new(1),
            },
            RnetError::EmptyNetwork,
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
            assert!(!format!("{v:?}").is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RnetError>();
    }
}
