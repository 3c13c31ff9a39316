package process

// ExploreTermination is the explorer behind ValidateGuaranteedTermination,
// without the set of proven shapes: the judges of the exploration call
// it, since a hit in the set would answer for it.
var ExploreTermination = exploreTermination

// ProvenCap is the number of keys at which the set of proven shapes
// empties.
const ProvenCap = provenCap

// ProvenLen returns the number of keys in the set of proven shapes.
func ProvenLen() int {
	proven.Lock()
	defer proven.Unlock()
	return len(proven.keys)
}

// RecordProven adds key to the set of proven shapes as a successful
// exploration does.
func RecordProven(key string) { recordProven([]byte(key)) }
