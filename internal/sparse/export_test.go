package sparse

// The SpMM oracle, shared with the external test package, whose files need
// matgen (which imports sparse).
var (
	MulMatWidths       = mulMatWidths
	CheckMulMatBitwise = checkMulMatBitwise
)
