include Hector_obs.Json
