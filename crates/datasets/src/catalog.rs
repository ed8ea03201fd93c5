//! The dataset catalog: Table 2 of the paper plus the synthetic scaling
//! policy.

/// Topology family of a dataset, the axis along which every qualitative
//  result in the paper splits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// High-diameter, near-planar, small-degree road network.
    Road,
    /// Low-diameter, heavy-tailed scale-free network.
    ScaleFree,
}

/// Identifier of one of the paper's 12 evaluation datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(clippy::upper_case_acronyms)]
pub enum DatasetId {
    /// California road network (DIMACS).
    CAL,
    /// East-USA road network (DIMACS).
    EAS,
    /// Center-USA road network (DIMACS).
    CTR,
    /// Full USA road network (DIMACS).
    USA,
    /// Skitter autonomous-systems links.
    SKIT,
    /// University of Notre Dame web pages (directed in the paper).
    WND,
    /// Citeseer collaboration network.
    AUT,
    /// YouTube social network.
    YTB,
    /// Actor collaboration network.
    ACT,
    /// Baidu hyperlink network (directed in the paper).
    BDU,
    /// Pokec social network (directed in the paper).
    POK,
    /// LiveJournal social network (directed in the paper).
    LIJ,
}

/// Static information about one dataset, as reported in Table 2.
#[derive(Debug, Clone)]
pub struct DatasetInfo {
    /// Dataset identifier.
    pub id: DatasetId,
    /// Short name used throughout the paper's tables and figures.
    pub name: &'static str,
    /// Human-readable description (Table 2's "Description" column).
    pub description: &'static str,
    /// Topology family.
    pub topology: Topology,
    /// Vertex count of the real dataset.
    pub paper_vertices: usize,
    /// Edge count of the real dataset.
    pub paper_edges: usize,
    /// Whether the paper's source file is directed.
    pub directed_in_paper: bool,
}

impl DatasetId {
    /// All 12 datasets in the order of Table 2.
    pub fn all() -> [DatasetId; 12] {
        use DatasetId::*;
        [CAL, EAS, CTR, USA, SKIT, WND, AUT, YTB, ACT, BDU, POK, LIJ]
    }

    /// The subset of datasets the shared-memory evaluation (Table 3, Figures
    /// 5 and 7) concentrates on — everything except the two largest.
    pub fn shared_memory_set() -> [DatasetId; 10] {
        use DatasetId::*;
        [CAL, EAS, CTR, USA, SKIT, WND, AUT, YTB, ACT, BDU]
    }

    /// Static catalog information.
    pub fn info(self) -> DatasetInfo {
        use DatasetId::*;
        use Topology::*;
        let (name, description, topology, n, m, directed) = match self {
            CAL => (
                "CAL",
                "California road network",
                Road,
                1_890_815,
                4_657_742,
                false,
            ),
            EAS => (
                "EAS",
                "East USA road network",
                Road,
                3_598_623,
                8_778_114,
                false,
            ),
            CTR => (
                "CTR",
                "Center USA road network",
                Road,
                14_081_816,
                34_292_496,
                false,
            ),
            USA => (
                "USA",
                "Full USA road network",
                Road,
                23_947_347,
                58_333_344,
                false,
            ),
            SKIT => (
                "SKIT",
                "Skitter autonomous systems",
                ScaleFree,
                192_244,
                636_643,
                false,
            ),
            WND => (
                "WND",
                "Univ. Notre Dame webpages",
                ScaleFree,
                325_729,
                1_497_134,
                true,
            ),
            AUT => (
                "AUT",
                "Citeseer collaboration",
                ScaleFree,
                227_320,
                814_134,
                false,
            ),
            YTB => (
                "YTB",
                "Youtube social network",
                ScaleFree,
                1_134_890,
                2_987_624,
                false,
            ),
            ACT => (
                "ACT",
                "Actor collaboration network",
                ScaleFree,
                382_219,
                33_115_812,
                false,
            ),
            BDU => (
                "BDU",
                "Baidu hyperlink network",
                ScaleFree,
                2_141_300,
                17_794_839,
                true,
            ),
            POK => (
                "POK",
                "Social network Pokec",
                ScaleFree,
                1_632_803,
                30_622_564,
                true,
            ),
            LIJ => (
                "LIJ",
                "LiveJournal social network",
                ScaleFree,
                4_847_571,
                68_993_773,
                true,
            ),
        };
        DatasetInfo {
            id: self,
            name,
            description,
            topology,
            paper_vertices: n,
            paper_edges: m,
            directed_in_paper: directed,
        }
    }

    /// Short name (e.g. `"CAL"`).
    pub fn name(self) -> &'static str {
        self.info().name
    }

    /// Topology family.
    pub fn topology(self) -> Topology {
        self.info().topology
    }
}

/// How aggressively the synthetic stand-ins are scaled down from the real
/// dataset sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~1/20000 of the paper sizes: hundreds of vertices, for unit tests.
    Tiny,
    /// ~1/1000 of the paper sizes: thousands of vertices, the default for
    /// benchmarks on a laptop.
    Small,
    /// ~1/200 of the paper sizes: tens of thousands of vertices, for longer
    /// benchmark runs.
    Medium,
}

impl Scale {
    /// Divisor applied to the paper's vertex counts.
    pub fn divisor(self) -> usize {
        match self {
            Scale::Tiny => 20_000,
            Scale::Small => 1_000,
            Scale::Medium => 200,
        }
    }

    /// Target vertex count for a dataset at this scale (at least 64).
    pub fn target_vertices(self, info: &DatasetInfo) -> usize {
        (info.paper_vertices / self.divisor()).max(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_table_2() {
        assert_eq!(DatasetId::all().len(), 12);
        let cal = DatasetId::CAL.info();
        assert_eq!(cal.paper_vertices, 1_890_815);
        assert_eq!(cal.topology, Topology::Road);
        assert!(!cal.directed_in_paper);
        let lij = DatasetId::LIJ.info();
        assert_eq!(lij.paper_edges, 68_993_773);
        assert!(lij.directed_in_paper);
        assert_eq!(DatasetId::SKIT.name(), "SKIT");
        assert_eq!(DatasetId::USA.topology(), Topology::Road);
    }

    #[test]
    fn all_names_are_unique() {
        let mut names: Vec<&str> = DatasetId::all().iter().map(|d| d.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn scales_order_correctly() {
        let info = DatasetId::YTB.info();
        let tiny = Scale::Tiny.target_vertices(&info);
        let small = Scale::Small.target_vertices(&info);
        let medium = Scale::Medium.target_vertices(&info);
        assert!(tiny < small);
        assert!(small < medium);
        assert!(tiny >= 64);
    }

    #[test]
    fn shared_memory_set_excludes_largest() {
        let set = DatasetId::shared_memory_set();
        assert!(!set.contains(&DatasetId::POK));
        assert!(!set.contains(&DatasetId::LIJ));
        assert_eq!(set.len(), 10);
    }
}
