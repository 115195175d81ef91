package valrange

import "kivati/internal/isa"

// AnalyzeEveryRegion is the reference analysis: AnalyzeDecoded with every
// function region solved, whether or not its facts are read.
func AnalyzeEveryRegion(decoded []isa.Instr, entries []uint32, opt Options) *Analysis {
	return analyze(decoded, entries, opt, true)
}
