package compile

import "phasemark/internal/stats"

// GenProgram exposes the random program generator (progGen) to the
// external test package: a well-formed, terminating mini-language
// program with a one-argument main, drawn from seed.
func GenProgram(seed uint64) string {
	g := &progGen{r: stats.NewRNG(seed)}
	return g.generate()
}
