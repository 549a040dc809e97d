//! Engine versioning for the upgrade-protection mechanism (paper §7.1).
//!
//! During an N+1 rolling upgrade a cluster transiently runs mixed engine
//! versions. MemoryDB stamps the replication stream with the engine version
//! that produced it; a replica running an **older** engine that observes a
//! stream from a **newer** engine stops consuming the transaction log rather
//! than risk misinterpreting commands it does not know.

use std::fmt;
use std::str::FromStr;

/// A `major.minor.patch` engine version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EngineVersion {
    /// Major version.
    pub major: u16,
    /// Minor version.
    pub minor: u16,
    /// Patch version.
    pub patch: u16,
}

impl EngineVersion {
    /// Builds a version.
    pub const fn new(major: u16, minor: u16, patch: u16) -> EngineVersion {
        EngineVersion {
            major,
            minor,
            patch,
        }
    }

    /// The version this reproduction models: OSS Redis 7.0.7, the engine
    /// version the paper benchmarks.
    pub const CURRENT: EngineVersion = EngineVersion::new(7, 0, 7);

    /// Can an engine at `self` safely consume a replication stream produced
    /// by `producer`? (Only same-or-older producers are safe.)
    pub fn can_consume_stream_from(self, producer: EngineVersion) -> bool {
        producer <= self
    }
}

impl fmt::Display for EngineVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}", self.major, self.minor, self.patch)
    }
}

/// Error parsing an engine version string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseVersionError;

impl FromStr for EngineVersion {
    type Err = ParseVersionError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut it = s.split('.');
        let major = it
            .next()
            .ok_or(ParseVersionError)?
            .parse()
            .map_err(|_| ParseVersionError)?;
        let minor = it
            .next()
            .ok_or(ParseVersionError)?
            .parse()
            .map_err(|_| ParseVersionError)?;
        let patch = it
            .next()
            .ok_or(ParseVersionError)?
            .parse()
            .map_err(|_| ParseVersionError)?;
        if it.next().is_some() {
            return Err(ParseVersionError);
        }
        Ok(EngineVersion {
            major,
            minor,
            patch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_semver_like() {
        let v707 = EngineVersion::new(7, 0, 7);
        let v710 = EngineVersion::new(7, 1, 0);
        let v800 = EngineVersion::new(8, 0, 0);
        assert!(v707 < v710);
        assert!(v710 < v800);
        assert!(v707 < v800);
    }

    #[test]
    fn stream_consumption_rule() {
        let old = EngineVersion::new(7, 0, 7);
        let new = EngineVersion::new(7, 1, 0);
        // Old replica must NOT consume a new primary's stream.
        assert!(!old.can_consume_stream_from(new));
        // New replica can consume an old stream, and same-version is fine.
        assert!(new.can_consume_stream_from(old));
        assert!(old.can_consume_stream_from(old));
    }

    #[test]
    fn parse_and_display_roundtrip() {
        let v: EngineVersion = "7.0.7".parse().unwrap();
        assert_eq!(v, EngineVersion::CURRENT);
        assert_eq!(v.to_string(), "7.0.7");
        assert!("7.0".parse::<EngineVersion>().is_err());
        assert!("7.0.7.1".parse::<EngineVersion>().is_err());
        assert!("a.b.c".parse::<EngineVersion>().is_err());
    }
}
