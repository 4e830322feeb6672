package phonetic

// Prefilters reports whether a candidate summarised as s passes m's
// prefilter, that is, goes on to the edit distance.
func (m *BoundedMatcher) Prefilters(s Summary) bool { return !m.rejects(s) }
