// Package a plants every case deadcheck must tell apart.
package a

// I is reached: Live returns it.
type I interface{ M() }

// Box is reached through Live, so its method and what that calls are too.
type Box struct{}

// Get is reached because Box is.
func (b *Box) Get() int { return boxHelper() }

func boxHelper() int { return 1 }

// Close is reached because Box is; neither its name nor Live's b.Close()
// is a use of the function Close below.
func (b *Box) Close() {}

// Live is called by cmd/app.
func Live() I {
	var b Box
	b.Get()
	b.Close()
	return nil
}

func init() { registered() }

func registered() {}

// UsedByBench is called only by the bench module's binary.
func UsedByBench() {}

// Allowed is on the allowlist and reached by no binary.
func Allowed() { allowedHelper() }

func allowedHelper() {}

// Reached is on the allowlist, but cmd/app calls it.
func Reached() {}

// Dead is called by nothing but a test.
func Dead() { deadHelper() }

// deadHelper's only caller is Dead.
func deadHelper() {}

// Close shares its name with a method of Box, and nothing calls it.
func Close() {}

// T is kept alive only by the blank assertion below, which is no root.
type T struct{}

// M makes T an I.
func (*T) M() {}

var _ I = (*T)(nil)
