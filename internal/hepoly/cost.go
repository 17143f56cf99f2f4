package hepoly

import "github.com/efficientfhe/smartpaf/internal/paf"

// RequiredLevels returns the number of levels a ReLU with this PAF consumes,
// including the scaling multiplication used by Static Scaling deployment
// (one constant multiply to scale the input into [-1,1]).
func RequiredLevels(c *paf.Composite, withScaling bool) int {
	levels := c.DepthReLU()
	if withScaling {
		levels++
	}
	return levels
}
