//go:build !amd64

package sim

import "github.com/gossipkit/slicing/internal/view"

// prefetchWindow is a no-op off amd64; see prefetch_amd64.go.
func prefetchWindow(win []view.Entry) {}
