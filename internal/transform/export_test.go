package transform

// EnumerateCold and EnumerateOracle expose the memo-free exploration
// and its test-only oracle to the external tests, which parse the
// shipped skeletons through sklang (and sklang imports this package).
var (
	EnumerateCold   = enumerate
	EnumerateOracle = oracleEnumerate
)
