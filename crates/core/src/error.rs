use std::error::Error;
use std::fmt;

use pubsub_clustering::ClusterError;
use pubsub_geom::GeomError;
use pubsub_netsim::NetError;

/// Errors produced while building or driving a [`crate::Broker`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BrokerError {
    /// A configuration parameter was out of range.
    InvalidConfig {
        /// Name of the parameter.
        parameter: &'static str,
        /// Constraint that was violated.
        constraint: &'static str,
    },
    /// A subscription or event did not match the space's dimensionality.
    DimensionMismatch {
        /// Space dimensionality.
        expected: usize,
        /// Offending object's dimensionality.
        got: usize,
    },
    /// A subscription referenced a node that is not in the topology.
    UnknownNode {
        /// The offending node id (raw value).
        node: u32,
    },
    /// A subscription handle that was never issued, or whose subscription
    /// has already been removed.
    UnknownHandle {
        /// The raw handle value.
        handle: u32,
    },
    /// Error from the durable subscription journal: an I/O failure while
    /// appending or snapshotting, or corrupt data found during recovery.
    /// If appending fails after an op was applied in memory, the broker
    /// is ahead of the journal and the op must be considered unacked.
    Journal {
        /// What failed.
        message: String,
    },
    /// Error from the clustering layer.
    Cluster(ClusterError),
    /// Error from the geometry layer.
    Geom(GeomError),
    /// Error from the network layer.
    Net(NetError),
}

impl fmt::Display for BrokerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BrokerError::InvalidConfig {
                parameter,
                constraint,
            } => write!(
                f,
                "invalid configuration: {parameter} must satisfy {constraint}"
            ),
            BrokerError::DimensionMismatch { expected, got } => {
                write!(f, "object has {got} dimensions, event space has {expected}")
            }
            BrokerError::UnknownNode { node } => {
                write!(f, "node {node} is not in the topology")
            }
            BrokerError::UnknownHandle { handle } => {
                write!(f, "subscription handle {handle} is not live")
            }
            BrokerError::Journal { message } => write!(f, "journal error: {message}"),
            BrokerError::Cluster(e) => write!(f, "clustering error: {e}"),
            BrokerError::Geom(e) => write!(f, "geometry error: {e}"),
            BrokerError::Net(e) => write!(f, "network error: {e}"),
        }
    }
}

impl Error for BrokerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BrokerError::Cluster(e) => Some(e),
            BrokerError::Geom(e) => Some(e),
            BrokerError::Net(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<ClusterError> for BrokerError {
    fn from(e: ClusterError) -> Self {
        BrokerError::Cluster(e)
    }
}

#[doc(hidden)]
impl From<GeomError> for BrokerError {
    fn from(e: GeomError) -> Self {
        BrokerError::Geom(e)
    }
}

#[doc(hidden)]
impl From<NetError> for BrokerError {
    fn from(e: NetError) -> Self {
        BrokerError::Net(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_sources() {
        let e = BrokerError::from(ClusterError::InvalidDensity {
            value: "-1".to_string(),
        });
        assert!(e.to_string().contains("clustering error"));
        assert!(Error::source(&e).is_some());
        let c = BrokerError::InvalidConfig {
            parameter: "threshold",
            constraint: "0 <= t <= 1",
        };
        assert!(Error::source(&c).is_none());
        assert!(c.to_string().contains("threshold"));
    }
}
