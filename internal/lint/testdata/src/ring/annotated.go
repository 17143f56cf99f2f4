package ring

//hennlint:deterministic-sampling the retired escape hatch exempts nothing
import "math/rand" // want "math/rand imported in a crypto package"

func noise(seed int64) float64 {
	return rand.New(rand.NewSource(seed)).NormFloat64()
}
