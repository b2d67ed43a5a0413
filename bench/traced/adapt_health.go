package traced

import "adaptivegossip/internal/health"

type healthParams = health.Params

func healthOn(on bool) healthParams { return health.Params{Enabled: on} }
