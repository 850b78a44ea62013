//go:build race

package experiments

func init() { raceBuild = true }
