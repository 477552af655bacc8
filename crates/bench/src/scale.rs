//! Experiment scale selection.

/// How much of the paper's parameter grid an experiment covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// A minute's worth of cases: used by integration tests and CI. Sweeps
    /// the interesting axis with minimal averaging over the others.
    Smoke,
    /// The default: every value of the swept axis, light averaging over the
    /// remaining axes. Minutes on a laptop.
    #[default]
    Default,
    /// The paper's complete grid (500k random-DAG cases; the full Table 5
    /// campaign for the applications). Hours.
    Full,
}

impl Scale {
    /// Parse from a CLI string.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "smoke" => Some(Scale::Smoke),
            "default" => Some(Scale::Default),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// Random-DAG instances generated per DAG type (paper: 10).
    pub fn instances(self) -> usize {
        match self {
            Scale::Smoke => 1,
            Scale::Default => 2,
            Scale::Full => 10,
        }
    }

    /// Seeds (resource-model draws) per (DAG, resource-model) combination.
    pub fn seeds(self) -> u64 {
        match self {
            Scale::Smoke => 1,
            Scale::Default => 2,
            Scale::Full => 4,
        }
    }

    /// Subsample stride over a secondary (averaged-over) axis: 1 = keep
    /// every value.
    pub fn stride(self) -> usize {
        match self {
            Scale::Smoke => 4,
            Scale::Default => 2,
            Scale::Full => 1,
        }
    }

    /// Application parallelism values for Tables 6-8 / Fig. 8.
    pub fn app_parallelism(self) -> Vec<usize> {
        match self {
            Scale::Smoke => vec![50],
            Scale::Default => vec![200, 600, 1000],
            Scale::Full => vec![200, 400, 600, 800, 1000],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trip() {
        assert_eq!(Scale::parse("smoke"), Some(Scale::Smoke));
        assert_eq!(Scale::parse("default"), Some(Scale::Default));
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("bogus"), None);
    }

    #[test]
    fn full_matches_paper_grid() {
        assert_eq!(Scale::Full.instances(), 10);
        assert_eq!(Scale::Full.app_parallelism(), vec![200, 400, 600, 800, 1000]);
        assert_eq!(Scale::Full.stride(), 1);
    }
}
