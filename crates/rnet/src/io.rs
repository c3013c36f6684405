//! Plain-text road-network I/O.
//!
//! Networks are stored in a simple line format so generated maps can be
//! exchanged with external tools (and so experiments can pin the exact
//! network they ran on):
//!
//! ```text
//! # comments / blank lines are skipped
//! node,<id>,<x>,<y>
//! segment,<id>,<a>,<b>,<length>,<speed_limit>,<oneway 0|1>
//! ```
//!
//! Node and segment ids must be dense and in order (the builder assigns
//! them that way).

use crate::error::RnetError;
use crate::geometry::Point;
use crate::graph::{RoadNetwork, RoadNetworkBuilder};
use crate::ids::NodeId;
use std::error::Error;
use std::fmt;
use std::io::{BufRead, Write};

/// Errors produced while reading a network file.
#[derive(Debug)]
#[non_exhaustive]
pub enum NetIoError {
    /// A line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        message: String,
    },
    /// A structural invariant failed while rebuilding the network.
    Invalid(RnetError),
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for NetIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetIoError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            NetIoError::Invalid(e) => write!(f, "invalid network: {e}"),
            NetIoError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl Error for NetIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NetIoError::Io(e) => Some(e),
            NetIoError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetIoError {
    fn from(e: std::io::Error) -> Self {
        NetIoError::Io(e)
    }
}

impl From<RnetError> for NetIoError {
    fn from(e: RnetError) -> Self {
        NetIoError::Invalid(e)
    }
}

/// Writes a network in the line format described in the module docs.
///
/// # Errors
///
/// Propagates I/O failures from the writer.
pub fn write_network<W: Write>(net: &RoadNetwork, mut w: W) -> Result<(), NetIoError> {
    writeln!(
        w,
        "# road network: {} nodes, {} segments",
        net.node_count(),
        net.segment_count()
    )?;
    for n in net.nodes() {
        writeln!(w, "node,{},{},{}", n.id.index(), n.position.x, n.position.y)?;
    }
    for s in net.segments() {
        writeln!(
            w,
            "segment,{},{},{},{},{},{}",
            s.id.index(),
            s.a.index(),
            s.b.index(),
            s.length,
            s.speed_limit,
            u8::from(s.oneway)
        )?;
    }
    Ok(())
}

/// Reads a network written by [`write_network`].
///
/// # Errors
///
/// Returns [`NetIoError::Parse`] with the line number for malformed input
/// and [`NetIoError::Invalid`] for structurally invalid networks.
pub fn read_network<R: BufRead>(mut r: R) -> Result<RoadNetwork, NetIoError> {
    let mut b = RoadNetworkBuilder::new();
    // One line buffer and one field array for the whole file: a network
    // file has a line per node and per segment (~260 k on Miami).
    let mut buf = String::new();
    let mut lineno = 0;
    loop {
        buf.clear();
        if r.read_line(&mut buf)? == 0 {
            break;
        }
        lineno += 1;
        let line = buf.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |message: String| NetIoError::Parse {
            line: lineno,
            message,
        };
        // The first seven fields, and how many there are in all.
        let mut fields = [""; 7];
        let mut count = 0;
        for field in line.split(',') {
            if let Some(slot) = fields.get_mut(count) {
                *slot = field;
            }
            count += 1;
        }
        match fields[0] {
            "node" => {
                if count != 4 {
                    return Err(err(format!("node needs 4 fields, got {count}")));
                }
                let id: usize = fields[1]
                    .parse()
                    .map_err(|_| err(format!("bad node id `{}`", fields[1])))?;
                if id != b.node_count() {
                    return Err(err(format!(
                        "node ids must be dense and ordered; expected {}, got {id}",
                        b.node_count()
                    )));
                }
                let x: f64 = fields[2]
                    .parse()
                    .map_err(|_| err(format!("bad x `{}`", fields[2])))?;
                let y: f64 = fields[3]
                    .parse()
                    .map_err(|_| err(format!("bad y `{}`", fields[3])))?;
                if !(x.is_finite() && y.is_finite()) {
                    return Err(err(format!("non-finite node position ({x}, {y})")));
                }
                b.add_node(Point::new(x, y));
            }
            "segment" => {
                if count != 7 {
                    return Err(err(format!("segment needs 7 fields, got {count}")));
                }
                let id: usize = fields[1]
                    .parse()
                    .map_err(|_| err(format!("bad segment id `{}`", fields[1])))?;
                if id != b.segment_count() {
                    return Err(err(format!(
                        "segment ids must be dense and ordered; expected {}, got {id}",
                        b.segment_count()
                    )));
                }
                let endpoint = |field: &str| {
                    let n: usize = field
                        .parse()
                        .map_err(|_| err(format!("bad endpoint `{field}`")))?;
                    // `NodeId` is 32 bits wide; a wider index must not wrap
                    // onto a real node.
                    u32::try_from(n)
                        .map(|_| NodeId::new(n))
                        .map_err(|_| err(format!("endpoint {n} exceeds the node id range")))
                };
                let a = endpoint(fields[2])?;
                let bb = endpoint(fields[3])?;
                let length: f64 = fields[4]
                    .parse()
                    .map_err(|_| err(format!("bad length `{}`", fields[4])))?;
                let speed: f64 = fields[5]
                    .parse()
                    .map_err(|_| err(format!("bad speed `{}`", fields[5])))?;
                let oneway = match fields[6] {
                    "0" => false,
                    "1" => true,
                    other => return Err(err(format!("bad oneway flag `{other}`"))),
                };
                b.add_segment_detailed(a, bb, length, speed, oneway)?;
            }
            other => {
                // The message has always shown the kind as `Some("...")`.
                return Err(err(format!("unknown record type {:?}", Some(other))));
            }
        }
    }
    Ok(b.build()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netgen::{generate_grid_network, GridNetworkConfig};

    #[test]
    fn roundtrip_preserves_network() {
        let net = generate_grid_network(&GridNetworkConfig::small_test(6, 7), 9);
        let mut buf = Vec::new();
        write_network(&net, &mut buf).unwrap();
        let back = read_network(buf.as_slice()).unwrap();
        assert_eq!(net.node_count(), back.node_count());
        assert_eq!(net.segment_count(), back.segment_count());
        for (a, b) in net.segments().zip(back.segments()) {
            assert_eq!(a, b);
        }
        for (a, b) in net.nodes().zip(back.nodes()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn oneway_flag_roundtrips() {
        let mut b = RoadNetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(100.0, 0.0));
        b.add_segment_detailed(n0, n1, 120.0, 10.0, true).unwrap();
        let net = b.build().unwrap();
        let mut buf = Vec::new();
        write_network(&net, &mut buf).unwrap();
        let back = read_network(buf.as_slice()).unwrap();
        let seg = back.segments().next().unwrap();
        assert!(seg.oneway);
        assert_eq!(seg.length, 120.0);
    }

    #[test]
    fn malformed_lines_report_position() {
        let text = "node,0,0.0,0.0\nnode,1,nan_x,0.0\n";
        let err = read_network(text.as_bytes()).unwrap_err();
        assert!(matches!(err, NetIoError::Parse { line: 2, .. }));
    }

    #[test]
    fn non_finite_values_are_rejected() {
        for v in ["NaN", "inf", "-inf"] {
            // A node coordinate: a parse error on that node's line.
            for node in [format!("node,1,{v},0.0"), format!("node,1,0.0,{v}")] {
                let text = format!("node,0,0.0,0.0\n{node}\n");
                let err = read_network(text.as_bytes()).unwrap_err();
                assert!(
                    matches!(err, NetIoError::Parse { line: 2, .. }),
                    "{v}: {err}"
                );
            }
            // A segment length or speed limit: the builder's structured error.
            let head = "node,0,0.0,0.0\nnode,1,100.0,0.0\n";
            for seg in [
                format!("segment,0,0,1,{v},13.9,0"),
                format!("segment,0,0,1,100.0,{v},0"),
            ] {
                let text = format!("{head}{seg}\n");
                let err = read_network(text.as_bytes()).unwrap_err();
                assert!(
                    matches!(err, NetIoError::Invalid(RnetError::NonFiniteSegment { .. })),
                    "{seg}: {err}"
                );
            }
        }
    }

    #[test]
    fn non_dense_ids_rejected() {
        let text = "node,5,0.0,0.0\n";
        assert!(matches!(
            read_network(text.as_bytes()),
            Err(NetIoError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn out_of_range_endpoint_is_a_parse_error() {
        // 2^32 would wrap onto n0 if narrowed to the 32-bit node id.
        let head = "node,0,0.0,0.0\nnode,1,1000.0,0.0\n";
        for seg in [
            "segment,0,4294967296,1,1000,13.9,0",
            "segment,0,0,4294967297,1000,13.9,0",
        ] {
            let err = read_network(format!("{head}{seg}\n").as_bytes()).unwrap_err();
            assert!(matches!(err, NetIoError::Parse { line: 3, .. }), "{err}");
            assert!(
                err.to_string().contains("exceeds the node id range"),
                "{err}"
            );
        }
        // The largest 32-bit id parses, then fails as an unknown node.
        let text = format!("{head}segment,0,0,4294967295,1000,13.9,0\n");
        assert!(matches!(
            read_network(text.as_bytes()),
            Err(NetIoError::Invalid(RnetError::UnknownNode(_)))
        ));
    }

    #[test]
    fn error_texts_name_the_record_and_field() {
        let cases = [
            (
                "node,0,0.0\n",
                "parse error on line 1: node needs 4 fields, got 3",
            ),
            (
                "node,0,0,0\nsegment,0,0\n",
                "parse error on line 2: segment needs 7 fields, got 3",
            ),
            (
                "node,0,0,0\nsegment,0,0,x,1,1,0,9\n",
                "parse error on line 2: segment needs 7 fields, got 8",
            ),
            (
                "node,0,0,0\n\n# c\nnode,x,0,0\n",
                "parse error on line 4: bad node id `x`",
            ),
            (
                "edge,0,1,2\n",
                "parse error on line 1: unknown record type Some(\"edge\")",
            ),
            (
                "node,0,0,0\nnode,1,9,0\nsegment,0,0,1,9,1,2\n",
                "parse error on line 3: bad oneway flag `2`",
            ),
            (
                "node,0,0,0\nsegment,0,-1,0,9,1,0\n",
                "parse error on line 2: bad endpoint `-1`",
            ),
        ];
        for (text, want) in cases {
            let err = read_network(text.as_bytes()).unwrap_err();
            assert_eq!(err.to_string(), want);
        }
    }

    #[test]
    fn crlf_line_endings_are_accepted() {
        let text = "node,0,0.0,0.0\r\nnode,1,10.0,0.0\r\nsegment,0,0,1,10.0,5.0,1\r\n";
        let net = read_network(text.as_bytes()).unwrap();
        assert_eq!(net.segment_count(), 1);
        assert!(net.segments().next().unwrap().oneway);
    }

    #[test]
    fn unknown_record_rejected() {
        let text = "edge,0,1,2\n";
        assert!(read_network(text.as_bytes()).is_err());
    }

    #[test]
    fn invalid_structure_is_reported() {
        // Segment referencing a missing node.
        let text = "node,0,0.0,0.0\nsegment,0,0,9,100.0,10.0,0\n";
        assert!(matches!(
            read_network(text.as_bytes()),
            Err(NetIoError::Invalid(_))
        ));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# hi\n\nnode,0,0.0,0.0\nnode,1,10.0,0.0\nsegment,0,0,1,10.0,5.0,0\n";
        let net = read_network(text.as_bytes()).unwrap();
        assert_eq!(net.node_count(), 2);
        assert_eq!(net.segment_count(), 1);
    }
}
