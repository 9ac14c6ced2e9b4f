package datagen

// TaskSpec describes one row of the paper's evaluation tables: a workload
// plus how it was labeled in the deployment (single user vs crowd) and the
// question cap CloudMatcher enforced.
type TaskSpec struct {
	Spec Spec
	// Crowd is true when Table 2 shows a Mechanical Turk cost for the
	// task; false means a single user labeled.
	Crowd bool
	// QuestionCap is CloudMatcher's labeling budget (the paper's upper
	// limit is 1200).
	QuestionCap int
	// Org describes the deploying organization, for report rendering.
	Org string
}

// Table2Tasks returns the 13 CloudMatcher deployment workloads of Table 2.
// The paper's table sizes span 300–4.9M tuples; ours are scaled down
// (300–2500) so the whole suite regenerates on a laptop, preserving each
// task's dirtiness profile:
//
//   - vehicles: the discriminative VIN is mostly missing and the expert's
//     labels are noisy — precision and recall collapse;
//   - addresses: dirty free-text addresses — recall lands well below the
//     clean tasks;
//   - vendors: a 25% Brazilian garbage-address segment — low accuracy;
//   - vendors_no_brazil: the same workload with the segment removed —
//     accuracy recovers, reproducing the paper's before/after pair.
func Table2Tasks(seed int64) []TaskSpec {
	return []TaskSpec{
		{Org: "retail company", Crowd: true, QuestionCap: 1200,
			Spec: Spec{Name: "products", Domain: ProductDomain(), SizeA: 2500, SizeB: 2500, MatchFraction: 0.4, Typo: 0.25, Seed: seed + 1}},
		{Org: "retail company", Crowd: false, QuestionCap: 700,
			Spec: Spec{Name: "electronics", Domain: ProductDomain(), SizeA: 2000, SizeB: 1500, MatchFraction: 0.5, Typo: 0.3, Seed: seed + 2}},
		{Org: "publisher", Crowd: false, QuestionCap: 400,
			Spec: Spec{Name: "books", Domain: BookDomain(), SizeA: 1500, SizeB: 1500, MatchFraction: 0.45, Typo: 0.25, Seed: seed + 3}},
		{Org: "hospitality company", Crowd: true, QuestionCap: 800,
			Spec: Spec{Name: "restaurants", Domain: RestaurantDomain(), SizeA: 1200, SizeB: 1000, MatchFraction: 0.5, Typo: 0.3, Seed: seed + 4}},
		{Org: "streaming company", Crowd: false, QuestionCap: 600,
			Spec: Spec{Name: "movies", Domain: MovieDomain(), SizeA: 2500, SizeB: 2000, MatchFraction: 0.4, Typo: 0.25, Seed: seed + 5}},
		{Org: "domain science group", Crowd: false, QuestionCap: 500,
			Spec: Spec{Name: "citations", Domain: CitationDomain(), SizeA: 2000, SizeB: 2000, MatchFraction: 0.4, Typo: 0.2, Seed: seed + 6}},
		{Org: "non-profit", Crowd: true, QuestionCap: 1000,
			Spec: Spec{Name: "donors", Domain: PersonDomain(), SizeA: 2500, SizeB: 2000, MatchFraction: 0.35, Typo: 0.25, Seed: seed + 7}},
		{Org: "non-profit", Crowd: false, QuestionCap: 160,
			Spec: Spec{Name: "members", Domain: PersonDomain(), SizeA: 300, SizeB: 300, MatchFraction: 0.5, Typo: 0.2, Seed: seed + 8}},
		{Org: "insurance company", Crowd: false, QuestionCap: 800,
			Spec: Spec{Name: "suppliers", Domain: VendorDomain(), SizeA: 2000, SizeB: 1800, MatchFraction: 0.45, Typo: 0.25, Seed: seed + 9}},
		{Org: "insurance company", Crowd: false, QuestionCap: 1200,
			Spec: Spec{Name: "vehicles", Domain: VehicleDomain(), SizeA: 2000, SizeB: 1800, MatchFraction: 0.4, Typo: 0.3, Missing: 0.45, Seed: seed + 10}},
		{Org: "insurance company", Crowd: false, QuestionCap: 1000,
			Spec: Spec{Name: "addresses", Domain: PersonDomain(), SizeA: 2000, SizeB: 1800, MatchFraction: 0.4, Typo: 0.55, Missing: 0.15, Seed: seed + 11}},
		{Org: "insurance company", Crowd: false, QuestionCap: 1000,
			Spec: Spec{Name: "vendors", Domain: VendorDomain(), SizeA: 2000, SizeB: 1600, MatchFraction: 0.4, Typo: 0.3, GarbageFraction: 0.25, Seed: seed + 12}},
		{Org: "insurance company", Crowd: false, QuestionCap: 1000,
			Spec: Spec{Name: "vendors_no_brazil", Domain: VendorDomain(), SizeA: 2000, SizeB: 1600, MatchFraction: 0.4, Typo: 0.3, Seed: seed + 12}},
	}
}

// NoisyLabelTasks names the Table 2 tasks whose single-user labels were
// unreliable (the vehicles expert mislabeled a batch with no undo).
// Harnesses give these tasks a NoisyUser labeler instead of an Oracle.
func NoisyLabelTasks() map[string]float64 {
	return map[string]float64{
		"vehicles": 0.15,
	}
}

// Deployment describes one row of Table 1: a PyMatcher application with an
// incumbent solution to beat.
type Deployment struct {
	Spec Spec
	// Org and Purpose render the table's first two columns.
	Org, Purpose string
	// InProduction mirrors the paper's 4th column.
	InProduction bool
}

// Table1Deployments returns the 8 PyMatcher application workloads of
// Table 1. Each is matched by both the PyMatcher guide workflow and a
// rule-only baseline (the incumbent "company solution"); the reproduction
// target is the paper's headline — PyMatcher beats the incumbent's recall
// at comparable precision on Walmart, Economics, and Land Use.
func Table1Deployments(seed int64) []Deployment {
	return []Deployment{
		{Org: "Walmart", Purpose: "debug an EM pipeline in production", InProduction: true,
			Spec: Spec{Name: "walmart_products", Domain: ProductDomain(), SizeA: 1500, SizeB: 1500, MatchFraction: 0.4, Typo: 0.3, Seed: seed + 21}},
		{Org: "Economics (UW)", Purpose: "build a better EM pipeline", InProduction: true,
			Spec: Spec{Name: "economics_firms", Domain: VendorDomain(), SizeA: 1500, SizeB: 1500, MatchFraction: 0.4, Typo: 0.35, Missing: 0.1, Seed: seed + 22}},
		{Org: "Land Use (UW)", Purpose: "build a better EM pipeline", InProduction: true,
			Spec: Spec{Name: "landuse_ranches", Domain: RanchDomain(), SizeA: 1500, SizeB: 1500, MatchFraction: 0.4, Typo: 0.35, Missing: 0.1, Seed: seed + 23}},
		{Org: "Recruit", Purpose: "integrate disparate datasets", InProduction: true,
			Spec: Spec{Name: "recruit_companies", Domain: VendorDomain(), SizeA: 1200, SizeB: 1200, MatchFraction: 0.45, Typo: 0.25, Seed: seed + 24}},
		{Org: "Marshfield Clinic", Purpose: "integrate disparate datasets", InProduction: true,
			Spec: Spec{Name: "marshfield_patients", Domain: PersonDomain(), SizeA: 1500, SizeB: 1200, MatchFraction: 0.4, Typo: 0.25, Missing: 0.1, Seed: seed + 25}},
		{Org: "Limnology (UW)", Purpose: "integrate disparate datasets", InProduction: true,
			Spec: Spec{Name: "limnology_sites", Domain: CitationDomain(), SizeA: 1000, SizeB: 1000, MatchFraction: 0.5, Typo: 0.2, Seed: seed + 26}},
		{Org: "Johnson Controls", Purpose: "integrate disparate datasets", InProduction: false,
			Spec: Spec{Name: "jci_assets", Domain: ProductDomain(), SizeA: 1200, SizeB: 1000, MatchFraction: 0.4, Typo: 0.3, Seed: seed + 27}},
		{Org: "American Family", Purpose: "integrate disparate datasets", InProduction: false,
			Spec: Spec{Name: "amfam_claims", Domain: PersonDomain(), SizeA: 1500, SizeB: 1200, MatchFraction: 0.4, Typo: 0.3, Seed: seed + 28}},
	}
}
