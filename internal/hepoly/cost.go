package hepoly

import (
	"fmt"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/paf"
)

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

// CheckFits verifies a parameter set can evaluate the PAF's ReLU.
func CheckFits(params *ckks.Parameters, c *paf.Composite, withScaling bool) error {
	need := RequiredLevels(c, withScaling)
	if params.MaxLevel() < need {
		return fmt.Errorf("hepoly: %s ReLU needs %d levels, parameters provide %d",
			c.Name, need, params.MaxLevel())
	}
	return nil
}
