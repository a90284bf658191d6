package controller

import (
	"fmt"

	"pran/internal/phy"
)

// Predictor forecasts near-future total demand with Holt double exponential
// smoothing (level + trend). PRAN scales server capacity *ahead* of demand;
// a trend term is what lets the controller pre-provision during the morning
// ramp instead of chasing it (ablated against reactive scaling in E6/E10).
type Predictor struct {
	alpha, beta float64
	level       float64
	trend       float64
	n           int
}

// NewPredictor returns a Holt predictor with level gain alpha and trend
// gain beta, both in (0, 1].
func NewPredictor(alpha, beta float64) (*Predictor, error) {
	if alpha <= 0 || alpha > 1 || beta <= 0 || beta > 1 {
		return nil, fmt.Errorf("controller: Holt gains (%v, %v) outside (0,1]: %w", alpha, beta, phy.ErrBadParameter)
	}
	return &Predictor{alpha: alpha, beta: beta}, nil
}

// Observe feeds the next demand sample.
func (p *Predictor) Observe(v float64) {
	if v < 0 {
		v = 0
	}
	switch p.n {
	case 0:
		p.level = v
	case 1:
		p.trend = v - p.level
		p.level = v
	default:
		prevLevel := p.level
		p.level = p.alpha*v + (1-p.alpha)*(p.level+p.trend)
		p.trend = p.beta*(p.level-prevLevel) + (1-p.beta)*p.trend
	}
	p.n++
}

// Forecast projects demand steps samples ahead (0 returns the current
// level). Forecasts never go negative.
func (p *Predictor) Forecast(steps int) float64 {
	if p.n == 0 {
		return 0
	}
	v := p.level + float64(steps)*p.trend
	if v < 0 {
		return 0
	}
	return v
}
