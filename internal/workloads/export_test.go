package workloads

// Key is the canonical key formatter, for the external tests.
var Key = key

// PrebuiltKeys returns the key slices YCSB hands out.
func (y *YCSB) PrebuiltKeys() [][]byte { return y.keys }

// PrebuiltKeys returns the key slices Twitter hands out.
func (t *Twitter) PrebuiltKeys() [][]byte { return t.keys }
