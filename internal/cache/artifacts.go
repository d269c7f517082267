package cache

import (
	"fmt"

	"cava/internal/video"
)

// This file holds the typed artifact helpers: generated videos memoized
// behind the get-or-compute core, safe to share across goroutines because
// videos are immutable once generated. Every helper works on a nil cache by
// generating directly.

// Artifact kinds, used as Stats keys and telemetry label values.
const (
	KindVideo = "video"
	KindSim   = "sim"
)

// Generate returns the video for a generator configuration, generating it
// at most once per cache. The full configuration is the key (not the video
// ID: Cap4xConfig and the plain ED H.264 encode share an ID but differ in
// cap).
func (c *Cache) Generate(cfg video.GenConfig) *video.Video {
	if c == nil {
		return video.Generate(cfg)
	}
	v, _ := c.GetOrCompute(KindVideo, GenConfigKey(cfg), func() (any, error) {
		return video.Generate(cfg), nil
	})
	return v.(*video.Video)
}

// GenerateAll returns the videos for a list of configurations, each
// generated at most once per cache.
func (c *Cache) GenerateAll(cfgs []video.GenConfig) []*video.Video {
	out := make([]*video.Video, len(cfgs))
	for i, cfg := range cfgs {
		out[i] = c.Generate(cfg)
	}
	return out
}

// VideoByID returns the dataset video with the given ID, generating at most
// once per cache, or nil when the ID is not in the dataset. Only the
// requested video is generated, unlike video.ByID's original
// scan-the-dataset behavior.
func (c *Cache) VideoByID(id string) *video.Video {
	cfg, ok := video.ConfigByID(id)
	if !ok {
		return nil
	}
	return c.Generate(cfg)
}

// VideoByIDErr is VideoByID returning an error for unknown IDs, for call
// sites that thread errors instead of handling the nil sentinel.
func (c *Cache) VideoByIDErr(id string) (*video.Video, error) {
	v := c.VideoByID(id)
	if v == nil {
		return nil, fmt.Errorf("cache: unknown video ID %q", id)
	}
	return v, nil
}
