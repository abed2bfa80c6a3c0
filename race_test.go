//go:build race

package crossmatch

func init() { raceBuild = true }
