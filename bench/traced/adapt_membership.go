package traced

import "adaptivegossip/internal/membership"

// registry is the full-membership view the real cluster facade uses.
type registry = membership.Registry

func newRegistry(names []nodeID) *registry { return membership.NewRegistry(names...) }
